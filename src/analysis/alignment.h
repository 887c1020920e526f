// API-trace alignment (the paper's Algorithm 1, after Zeller's program
// alignment): align calls whose execution context — the triple
// <API-name, Caller-PC, parameter list> — is equivalent, and return the
// unaligned difference sets Δm (mutated-only) and Δn (natural-only).
//
// The alignment is an exact longest common subsequence of the context
// triples at every trace length. The common prefix aligns call for call,
// a call whose triple the other remainder lacks can never align, and the
// rest goes through the O(NP) diff of Wu, Manber, Myers and Miller: with
// P unaligned calls of the shorter side, O((n+m)·P) time per level of an
// O(log(n+m))-deep recursion and O(n+m) memory. Among equally long
// alignments the one returned may differ from an LCS-table traceback's;
// the match count, and so the sizes of Δn and Δm, never does.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/trace.h"

namespace autovac::analysis {

struct AlignmentOptions {
  // Drop the caller-PC from the context triple (ablation: the paper logs
  // it "for the preciseness").
  bool use_caller_pc = true;
  // Compare the static parameter component (we use the resolved resource
  // identifier, the parameter that is stable across runs).
  bool use_identifier = true;
};

struct Alignment {
  // Pairs of aligned indices (natural_index, mutated_index), ascending.
  std::vector<std::pair<uint32_t, uint32_t>> matches;
  // Unaligned calls, as indices into the respective traces.
  std::vector<uint32_t> delta_natural;   // Δn
  std::vector<uint32_t> delta_mutated;   // Δm
};

[[nodiscard]] Alignment AlignTraces(const trace::ApiTrace& natural,
                                    const trace::ApiTrace& mutated,
                                    const AlignmentOptions& options = {});

}  // namespace autovac::analysis
