#include "analysis/alignment.h"

#include <algorithm>
#include <string>

namespace autovac::analysis {
namespace {

// Context-triple equivalence.
bool CallsAligned(const trace::ApiCallRecord& a, const trace::ApiCallRecord& b,
                  const AlignmentOptions& options) {
  if (a.api_name != b.api_name) return false;
  if (options.use_caller_pc && a.caller_pc != b.caller_pc) return false;
  if (options.use_identifier &&
      a.resource_identifier != b.resource_identifier) {
    return false;
  }
  return true;
}

// Equal triples hash equal: unequal hashes rule a match out cheaply.
size_t TripleHash(const trace::ApiCallRecord& call,
                  const AlignmentOptions& options) {
  const std::hash<std::string> hash;
  size_t h = hash(call.api_name);
  if (options.use_caller_pc) h = h * 1000003 ^ call.caller_pc;
  if (options.use_identifier) h = h * 1000003 ^ hash(call.resource_identifier);
  return h;
}

// A call still to align: its index in its trace and its triple hash.
struct Call {
  uint32_t index;
  size_t hash;
};

std::vector<Call> Remainder(const trace::ApiTrace& trace, size_t from,
                            const AlignmentOptions& options) {
  std::vector<Call> calls;
  calls.reserve(trace.calls.size() - from);
  for (size_t i = from; i < trace.calls.size(); ++i) {
    calls.push_back(
        {static_cast<uint32_t>(i), TripleHash(trace.calls[i], options)});
  }
  return calls;
}

// Drops the calls whose hash `other` lacks: they can never be aligned.
std::vector<Call> Alignable(std::vector<Call> calls,
                            const std::vector<Call>& other) {
  std::vector<size_t> present;
  for (const Call& call : other) present.push_back(call.hash);
  std::sort(present.begin(), present.end());
  std::erase_if(calls, [&](const Call& call) {
    return !std::binary_search(present.begin(), present.end(), call.hash);
  });
  return calls;
}

struct Differ {
  const trace::ApiTrace& natural;
  const trace::ApiTrace& mutated;
  const AlignmentOptions& options;
  std::vector<Call> nat, mut;
  std::vector<std::pair<uint32_t, uint32_t>>& matches;
  // Per diagonal k = y - x: the furthest y reached, and the x at which
  // that path first reached the middle row y == M / 2 (-1: not yet).
  std::vector<int> fp, mid;

  bool Same(int i, int j) const {
    return nat[i].hash == mut[j].hash &&
           CallsAligned(natural.calls[nat[i].index],
                        mutated.calls[mut[j].index], options);
  }

  // Appends the matches of an LCS of nat[n0, n1) and mut[m0, m1): the
  // O(NP) pass finds where an optimal path crosses the middle row.
  void Diff(int n0, int n1, int m0, int m1) {
    for (; n0 < n1 && m0 < m1 && Same(n0, m0); ++n0, ++m0) {
      matches.emplace_back(nat[n0].index, mut[m0].index);
    }
    // x walks the shorter side A, y the longer side B.
    const bool swap = n1 - n0 > m1 - m0;
    const int n = swap ? m1 - m0 : n1 - n0;
    const int m = swap ? n1 - n0 : m1 - m0;
    if (n == 0 || m < 2) return;  // a trimmed 1×1 problem has no match
    const int off = n + 1, delta = m - n, row = m / 2;
    fp.assign(n + m + 3, -1);
    mid.assign(n + m + 3, -1);
    auto snake = [&](int k) {
      const int skip_b = fp[off + k - 1] + 1, skip_a = fp[off + k + 1];
      // On a tie the path that skipped the mutated call wins, which most
      // often picks the alignment an LCS-table traceback picks.
      const int from = (swap ? skip_b > skip_a : skip_b >= skip_a) ? k - 1
                                                                   : k + 1;
      int y = std::max(skip_b, skip_a), x = y - k;
      while (x < n && y < m &&
             (swap ? Same(n0 + y, m0 + x) : Same(n0 + x, m0 + y))) {
        ++x, ++y;
      }
      fp[off + k] = y;
      int& cross = mid[off + k];
      cross = mid[off + from];
      if (cross < 0 && y >= row) cross = row - k;
    };
    for (int p = 0; fp[off + delta] != m; ++p) {
      for (int k = -p; k < delta; ++k) snake(k);
      for (int k = delta + p; k > delta; --k) snake(k);
      snake(delta);
    }
    const int x = mid[off + delta];
    const int n_split = n0 + (swap ? row : x), m_split = m0 + (swap ? x : row);
    Diff(n0, n_split, m0, m_split);
    Diff(n_split, n1, m_split, m1);
  }
};

}  // namespace

Alignment AlignTraces(const trace::ApiTrace& natural,
                      const trace::ApiTrace& mutated,
                      const AlignmentOptions& options) {
  Alignment alignment;
  const size_t n = natural.calls.size(), m = mutated.calls.size();
  size_t prefix = 0;
  for (; prefix < n && prefix < m &&
         CallsAligned(natural.calls[prefix], mutated.calls[prefix], options);
       ++prefix) {
    alignment.matches.emplace_back(prefix, prefix);
  }
  if (prefix < n && prefix < m) {
    const auto nat = Remainder(natural, prefix, options);
    const auto mut = Remainder(mutated, prefix, options);
    Differ differ{natural, mutated, options, Alignable(nat, mut),
                  Alignable(mut, nat), alignment.matches, {}, {}};
    differ.Diff(0, static_cast<int>(differ.nat.size()), 0,
                static_cast<int>(differ.mut.size()));
  }
  // Δn and Δm are the complements of the matches.
  uint32_t i = 0, j = 0;
  for (const auto& [ni, mj] : alignment.matches) {
    while (i < ni) alignment.delta_natural.push_back(i++);
    while (j < mj) alignment.delta_mutated.push_back(j++);
    ++i, ++j;
  }
  while (i < n) alignment.delta_natural.push_back(i++);
  while (j < m) alignment.delta_mutated.push_back(j++);
  return alignment;
}

}  // namespace autovac::analysis
