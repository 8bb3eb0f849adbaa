// Randomized rounding of fractional selections (Algorithm 2, RDCS).
//
// Dependent rounding pairs two fractional coordinates and shifts probability
// mass between them so that (i) the sum Σ x̃ is preserved up to one residual
// fractional coordinate, (ii) every coordinate becomes integral, and
// (iii) E[x_k] = x̃_k exactly (Theorem 3). Independent rounding — each
// coordinate rounded on its own — is provided for the A1 ablation bench.
//
// The in-place forms round a caller-owned vector using caller-owned scratch,
// so the hot path never materializes temporaries; the allocating forms are
// thin wrappers that draw the exact same RNG sequence.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace fedl::core {

// Reusable working set for rdcs_round_in_place: the active fractional index
// lists of the pairing loop. Grow-only; safe to share across epochs.
struct RdcsScratch {
  std::vector<std::size_t> frac;
  std::vector<std::size_t> next;
};

// Dependent rounding (RDCS) of x in place. Entries must lie in [0, 1]
// (±1e-12) and become exactly 0.0 or 1.0. The pairing loop runs until at
// most one coordinate remains fractional; the residual (if any) is rounded
// up with probability equal to its value, preserving marginals.
void rdcs_round_in_place(std::vector<double>& x, Rng& rng,
                         RdcsScratch& scratch);

// Independent rounding of x in place: x[k] ← 1 w.p. x̃_k. Draws one uniform
// per coordinate.
void independent_round_in_place(std::vector<double>& x, Rng& rng);

// Allocating wrappers over the in-place forms, for tests and benches that
// want a fresh 0/1 vector; RNG-sequence-identical to the in-place forms.
std::vector<int> rdcs_round(const std::vector<double>& fractions, Rng& rng);
std::vector<int> independent_round(const std::vector<double>& fractions,
                                   Rng& rng);

}  // namespace fedl::core
