#include "core/online_learner.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "common/math_util.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "solver/prox_solver.h"

namespace fedl::core {
namespace {

// Learner telemetry: the dual/pacing state the paper's analysis tracks (μ^0,
// ρ_t) plus how often the budget made an epoch infeasible and how many
// available clients the top-k pruning cut before the prox solve. Gauges hold
// the latest value, so the snapshot shows the end-of-run state.
const obs::Gauge& mu0_gauge() {
  static const obs::Gauge g("learner.mu0");
  return g;
}
const obs::Gauge& rho_gauge() {
  static const obs::Gauge g("learner.rho");
  return g;
}
const obs::Counter& infeasible_epochs() {
  static const obs::Counter c("learner.infeasible_epochs");
  return c;
}
const obs::Counter& pruned_clients() {
  static const obs::Counter c("learner.pruned");
  return c;
}

}  // namespace

OnlineLearner::OnlineLearner(std::size_t num_clients, LearnerConfig cfg)
    : cfg_(cfg),
      num_clients_(num_clients),
      // Pool priors are the values dense vectors used to be filled with;
      // a client that was never observed reads exactly as before.
      pool_(/*xfrac=*/0.5, /*eta=*/kInitEta, /*delta=*/kInitDeltaEst),
      rho_(2.0),
      mu0_(0.0),  // μ_1 = 0 (Lemma 2's initialization)
      last_loss_(kInitLoss) {
  FEDL_CHECK_GT(num_clients, 0u);
  FEDL_CHECK_LE(num_clients, SlotIndex::kMaxId + 1)
      << "client ids must fit the pool's 32-bit index";
  FEDL_CHECK_GT(cfg_.beta, 0.0);
  FEDL_CHECK_GT(cfg_.delta, 0.0);
  FEDL_CHECK_GE(cfg_.rho_max, 1.0);
  FEDL_CHECK_GT(cfg_.n_min, 0u);
  FEDL_CHECK(cfg_.selection_width == 0 ||
             cfg_.selection_width >= cfg_.n_min)
      << "selection_width must be 0 (no pruning) or >= n_min so the "
         "participation floor stays feasible";
}

double OnlineLearner::mu_k(std::size_t client) const {
  FEDL_CHECK_LT(client, num_clients_);
  return pool_.candidate(pool_.find(client)).mu;
}

double OnlineLearner::x_fraction(std::size_t client) const {
  FEDL_CHECK_LT(client, num_clients_);
  return pool_.candidate(pool_.find(client)).xfrac;
}

double OnlineLearner::eta_estimate(std::size_t client) const {
  FEDL_CHECK_LT(client, num_clients_);
  return pool_.estimates(pool_.find(client)).eta;
}

double OnlineLearner::delta_estimate(std::size_t client) const {
  FEDL_CHECK_LT(client, num_clients_);
  return pool_.estimates(pool_.find(client)).delta;
}

std::size_t OnlineLearner::resident_bytes() const {
  return pool_.resident_bytes() + sel_index_.capacity_bytes();
}

void OnlineLearner::select_candidates(const sim::EpochContext& ctx) {
  const std::size_t k = ctx.available.size();
  const std::size_t width = cfg_.selection_width;
  cand_.clear();
  if (width == 0 || k <= width) {
    cand_.resize(k);
    std::iota(cand_.begin(), cand_.end(), std::size_t{0});
    return;
  }

  // Bounded-heap top-k selection, O(|E_t| log width), no roster-sized state.
  // (1) Feasibility floor: the n_min cheapest clients must survive pruning
  // so Σx ≥ n_eff and the infeasible-epoch logic behave exactly as the
  // unpruned solve. Max-heap of (cost, index) keeps the smallest floor_n.
  in_cand_.assign(k, 0);
  const std::size_t floor_n = std::min<std::size_t>(cfg_.n_min, width);
  heap_.clear();
  for (std::size_t i = 0; i < k; ++i) {
    const std::pair<double, std::size_t> entry{ctx.available[i].cost, i};
    if (heap_.size() < floor_n) {
      heap_.push_back(entry);
      std::push_heap(heap_.begin(), heap_.end());
    } else if (entry < heap_.front()) {
      std::pop_heap(heap_.begin(), heap_.end());
      heap_.back() = entry;
      std::push_heap(heap_.begin(), heap_.end());
    }
  }
  for (const auto& e : heap_) in_cand_[e.second] = 1;

  // (2) Utility slots: among the rest, the best (width − floor_n) by the
  // paced utility score Δ̂_k·ρ/c_k (expected loss reduction per unit rent at
  // the current pacing ρ). Min-heap keeps the largest scores; ties prefer
  // the lower client index for determinism.
  const std::size_t extra = width - floor_n;
  heap_.clear();
  auto worse = [](const std::pair<double, std::size_t>& a,
                  const std::pair<double, std::size_t>& b) {
    // "a is worse than b": lower score, or same score and higher index.
    return a.first != b.first ? a.first < b.first : a.second > b.second;
  };
  // Exploration bonus β_w·sqrt(log t / n_k): log t is shared across the
  // epoch; n_k is the client's observation count (never-observed clients
  // divide by 1, giving them the full bonus). Guarded so the default
  // β_w = 0 adds literally nothing — the exploit-only score stays
  // bit-identical.
  const double log_t =
      cfg_.width_explore > 0.0
          ? std::log(std::max(2.0, static_cast<double>(ctx.epoch)))
          : 0.0;
  for (std::size_t i = 0; i < k && extra > 0; ++i) {
    if (in_cand_[i]) continue;
    const auto& obs = ctx.available[i];
    const SelectedRecord& st = pool_.estimates(pool_.find(obs.id));
    double score = st.delta * rho_ / std::max(obs.cost, 1e-12);
    if (cfg_.width_explore > 0.0)
      score += cfg_.width_explore *
               std::sqrt(log_t /
                         std::max(1.0, static_cast<double>(st.seen)));
    const std::pair<double, std::size_t> entry{score, i};
    if (heap_.size() < extra) {
      heap_.push_back(entry);
      std::push_heap(heap_.begin(), heap_.end(), worse);
    } else if (worse(heap_.front(), entry)) {
      std::pop_heap(heap_.begin(), heap_.end(), worse);
      heap_.back() = entry;
      std::push_heap(heap_.begin(), heap_.end(), worse);
    }
  }
  for (const auto& e : heap_) in_cand_[e.second] = 1;

  for (std::size_t i = 0; i < k; ++i)
    if (in_cand_[i]) cand_.push_back(i);
  pruned_clients().add(static_cast<std::uint64_t>(k - cand_.size()));
}

// Step (8)'s objective at Φ = [x̃, ρ] over the candidates decide() staged in
// anchor_, grad_f_, mu_local_, eta_ and delta_ (header: h^0, h^k):
//   ∇f_t·(Φ − Φ_t) + ‖Φ − Φ_t‖²/(2β) + μ·h(Φ),
// and its gradient into *grad when grad is non-null. Every sum keeps one
// fixed order (μ·h summed apart from 0, ∂(μ·h)/∂ρ likewise), which the
// decisions' digest chains pin bit for bit.
double OnlineLearner::step_objective(const std::vector<double>& phi,
                                     std::vector<double>* grad) const {
  FEDL_CHECK_EQ(phi.size(), anchor_.size());
  const std::size_t w = anchor_.size() - 1;
  const double n_d = static_cast<double>(cfg_.n_min);
  const double rho = phi[w];
  double value = 0.0;
  for (std::size_t i = 0; i <= w; ++i) {
    const double dx = phi[i] - anchor_[i];
    value += grad_f_[i] * dx + dx * dx / (2.0 * cfg_.beta);
  }
  double gain = 0.0;  // Σ_k x̃_k Δ̂_k
  for (std::size_t i = 0; i < w; ++i) gain += phi[i] * delta_[i];
  double mu_h = 0.0;
  mu_h += mu_local_[0] * (last_loss_ - (rho / n_d) * gain - cfg_.theta);
  for (std::size_t i = 0; i < w; ++i)
    mu_h += mu_local_[i + 1] * (eta_[i] * phi[i] * rho - rho + 1.0);
  value += mu_h;

  if (grad) {
    grad->resize(w + 1);
    double mu_h_rho = 0.0;  // ∂(μ·h)/∂ρ
    for (std::size_t i = 0; i < w; ++i) {
      const double mu_h_x = -mu_local_[0] * (rho / n_d) * delta_[i] +
                            mu_local_[i + 1] * eta_[i] * rho;
      mu_h_rho += mu_local_[i + 1] * (eta_[i] * phi[i] - 1.0);
      (*grad)[i] = grad_f_[i] + (phi[i] - anchor_[i]) / cfg_.beta + mu_h_x;
    }
    mu_h_rho += -mu_local_[0] * gain / n_d;
    (*grad)[w] = grad_f_[w] + (phi[w] - anchor_[w]) / cfg_.beta + mu_h_rho;
  }
  return value;
}

FractionalDecision OnlineLearner::decide(const sim::EpochContext& ctx,
                                         const BudgetLedger& budget) {
  FEDL_PROFILE_SCOPE("learner.decide");
  FractionalDecision dec;
  const std::size_t k = ctx.available.size();
  dec.rho = rho_;
  if (k == 0) return dec;  // nothing available this epoch

  select_candidates(ctx);
  const std::size_t w = cand_.size();

  dec.ids.reserve(w);
  dec.cost.reserve(w);
  tau_.resize(w);  // τ^loc + τ^cm per candidate
  for (std::size_t i = 0; i < w; ++i) {
    const auto& obs = ctx.available[cand_[i]];
    dec.ids.push_back(obs.id);
    dec.cost.push_back(obs.cost);
    tau_[i] = obs.tau_loc + obs.tau_cm_est;
  }

  // --- feasible set -------------------------------------------------------
  // When the remaining budget cannot rent the n_min cheapest clients, the
  // constraints Σx ≥ n_eff and Σc·x ≤ cap would contradict each other (the
  // n_eff cheapest unit selections already overshoot the cap). Shrink the
  // participation floor to the affordable floor (budget.h); when not even
  // the single cheapest client is affordable, the epoch is infeasible and
  // the decision is empty (select nobody, spend nothing, allocate no
  // record) — the ledger must never overdraw. The pruning floor keeps the
  // n_min cheapest of E_t in the candidate set, so this floor is the same
  // whether or not pruning ran.
  sorted_cost_ = dec.cost;
  const AffordableFloor floor =
      affordable_floor(sorted_cost_, cfg_.n_min, budget.remaining());
  if (floor.count == 0) {
    infeasible_epochs().add();
    dec.ids.clear();
    dec.cost.clear();
    return dec;
  }

  // The paced cap, raised to leave room for the floor's clients (whose
  // cost fits the remainder, so the cap still does).
  dec.cap = std::max(paced_cap(ctx, cfg_.n_min, budget.remaining()),
                     floor.cost);
  dec.n_eff = floor.count;

  // Σ c·x̃ ≤ cap, Σ x̃ ≥ n_eff, x̃ ∈ [0,1]^w and ρ ∈ [1, ρ_max].
  const solver::DecisionSet set{dec.cost, dec.cap,
                                static_cast<double>(dec.n_eff), cfg_.rho_max};

  // --- descent step (8) -----------------------------------------------------
  // One index probe per candidate: its record slot (allocated on first
  // offer) is the handle every later access of this decision uses. The
  // anchor Φ̃_t, the multipliers present this epoch (μ^0 plus the
  // candidates' μ^k) and the estimates η̂, Δ̂ are read through it.
  dec.slots.resize(w);
  anchor_.resize(w + 1);
  mu_local_.resize(w + 1);
  eta_.resize(w);
  delta_.resize(w);
  mu_local_[0] = mu0_;
  for (std::size_t i = 0; i < w; ++i) {
    const std::uint32_t slot = pool_.resolve(dec.ids[i]);
    dec.slots[i] = slot;
    const CandidateRecord& c = pool_.candidate(slot);
    anchor_[i] = c.xfrac;
    mu_local_[i + 1] = c.mu;
    const SelectedRecord& st = pool_.estimates(slot);
    eta_[i] = st.eta;
    delta_[i] = st.delta;
  }
  anchor_[w] = rho_;

  grad_f_.assign(w + 1, 0.0);
  double sum_xtau = 0.0;
  for (std::size_t i = 0; i < w; ++i) {
    grad_f_[i] = anchor_[w] * tau_[i];
    sum_xtau += anchor_[i] * tau_[i];
  }
  grad_f_[w] = sum_xtau;

  const solver::ProxSolverResult res = solver::minimize_projected(
      set, anchor_,
      [this](const std::vector<double>& phi, std::vector<double>* grad) {
        return step_objective(phi, grad);
      });

  // Commit the fractional solution into persistent memory (candidates only;
  // pruned clients keep their fractional memory for future epochs).
  dec.x.resize(w);
  for (std::size_t i = 0; i < w; ++i) {
    dec.x[i] = clamp(res.x[i], 0.0, 1.0);
    pool_.candidate_at(dec.slots[i]).xfrac = dec.x[i];
  }
  rho_ = clamp(res.x[w], 1.0, cfg_.rho_max);
  dec.rho = rho_;
  rho_gauge().set(rho_);
  return dec;
}

void OnlineLearner::observe(const FractionalDecision& frac,
                            const fl::EpochOutcome& outcome) {
  FEDL_PROFILE_SCOPE("learner.observe");
  last_loss_ = outcome.train_loss_all;
  const std::size_t n = outcome.selected.size();
  FEDL_CHECK_EQ(outcome.client_completed_iters.size(), n);
  FEDL_CHECK_EQ(outcome.client_eta.size(), n);
  FEDL_CHECK_EQ(outcome.client_loss_reduction.size(), n);
  FEDL_CHECK_EQ(frac.slots.size(), frac.ids.size());

  // Selected id → outcome index scratch (grow-only, cleared per epoch),
  // keyed through outcome.selected itself: selected[j] inserts at slot j.
  const auto selected_id = [&outcome](std::uint32_t j) {
    return outcome.selected[j];
  };
  sel_index_.clear();
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t id = outcome.selected[j];
    FEDL_CHECK_LT(id, num_clients_);
    bool inserted = false;
    sel_index_.find_or_insert(id, selected_id, &inserted);
    FEDL_CHECK(inserted) << "outcome selects client " << id << " twice";
  }

  // --- dual ascent (9): μ ← [μ + δ h_t(Φ̃_t)]+ -------------------------------
  // h^0 is observed directly; h^k uses the realized η of selected clients and
  // the current estimate for unselected ones. Only the decision's candidates
  // have h^k ≠ 0 this epoch, so only their μ^k move: every other client's
  // update would be the no-op [μ + δ·0]+ = μ, and is skipped outright —
  // unavailable clients' duals are bit-identical before and after. Every
  // candidate holds a record since decide(), reached through its slot.
  // The duals run before the estimate updates below, which change no value
  // they read: a selected client's h^k uses its realized η, and the
  // estimates of every other client stay as they are.
  const double rho = frac.rho;
  const double h0 = outcome.train_loss_all - cfg_.theta;
  mu0_ = clamp(positive_part(mu0_ + cfg_.delta * h0), 0.0, cfg_.mu_max);

  sel_slot_.assign(n, ClientStatePool::npos);
  for (std::size_t i = 0; i < frac.ids.size(); ++i) {
    const std::uint32_t slot = frac.slots[i];
    const std::uint32_t sel = sel_index_.find(frac.ids[i], selected_id);
    if (sel != SlotIndex::npos) sel_slot_[sel] = slot;
    const bool has_obs = sel != SlotIndex::npos &&
                         outcome.client_completed_iters[sel] > 0;
    const double eta =
        has_obs ? outcome.client_eta[sel] : pool_.estimates(slot).eta;
    const double h = eta * frac.x[i] * rho - rho + 1.0;
    CandidateRecord& c = pool_.candidate_at(slot);
    c.mu = clamp(positive_part(c.mu + cfg_.delta * h), 0.0, cfg_.mu_max);
  }

  // --- estimate updates -----------------------------------------------------
  // A client that dropped before finishing a single DANE iteration produced
  // no η/Δ observation, so its estimates must not be updated (EMAing η̂
  // toward the placeholder 0 would make the learner treat flaky clients as
  // fast convergers). A selected client outside the candidates (possible
  // only when the outcome is not the decision's) gets its record here.
  for (std::size_t j = 0; j < n; ++j) {
    const double iters =
        static_cast<double>(outcome.client_completed_iters[j]);
    if (iters <= 0.0) continue;  // dropped at iteration 0: nothing observed
    const std::uint32_t slot = sel_slot_[j] != ClientStatePool::npos
                                   ? sel_slot_[j]
                                   : pool_.resolve(outcome.selected[j]);
    SelectedRecord& st = pool_.selected_at(slot);
    ++st.seen;  // n_k for the width-explore bonus
    st.eta = (1.0 - cfg_.ema) * st.eta + cfg_.ema * outcome.client_eta[j];
    // The engine accumulates the reduction over the iterations the client
    // actually completed; dividing by that count gives the per-iteration
    // marginal Δ̂. Floor at zero so one noisy epoch can't turn a client's
    // estimate negative forever.
    const double per_iter =
        positive_part(outcome.client_loss_reduction[j]) / iters;
    st.delta = (1.0 - cfg_.ema) * st.delta + cfg_.ema * per_iter;
  }
  mu0_gauge().set(mu0_);
  FEDL_DEBUG << "learner: mu0=" << mu0_ << " rho=" << rho_
             << " L=" << last_loss_;
}

}  // namespace fedl::core
