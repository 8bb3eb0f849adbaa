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
      // Pool defaults are the priors dense vectors used to be filled with;
      // a client that was never observed reads exactly as before.
      pool_(ClientLearnerState{/*xfrac=*/0.5, /*eta=*/kInitEta,
                               /*delta=*/kInitDeltaEst, /*mu=*/0.0}),
      rho_(2.0),
      mu0_(0.0),  // μ_1 = 0 (Lemma 2's initialization)
      last_loss_(kInitLoss) {
  FEDL_CHECK_GT(num_clients, 0u);
  FEDL_CHECK_LE(num_clients, IdSlotMap::kMaxId + 1)
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
  return pool_.get(client).mu;
}

double OnlineLearner::x_fraction(std::size_t client) const {
  FEDL_CHECK_LT(client, num_clients_);
  return pool_.get(client).xfrac;
}

double OnlineLearner::eta_estimate(std::size_t client) const {
  FEDL_CHECK_LT(client, num_clients_);
  return pool_.get(client).eta;
}

double OnlineLearner::delta_estimate(std::size_t client) const {
  FEDL_CHECK_LT(client, num_clients_);
  return pool_.get(client).delta;
}

std::size_t OnlineLearner::resident_bytes() const {
  return pool_.resident_bytes() + sel_index_.capacity_bytes();
}

double OnlineLearner::select_candidates(const sim::EpochContext& ctx) {
  const std::size_t k = ctx.available.size();
  double cost_sum = 0.0;
  for (const auto& obs : ctx.available) cost_sum += obs.cost;
  const double mean_cost = cost_sum / static_cast<double>(k);

  const std::size_t width = cfg_.selection_width;
  cand_.clear();
  if (width == 0 || k <= width) {
    cand_.resize(k);
    std::iota(cand_.begin(), cand_.end(), std::size_t{0});
    return mean_cost;
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
    const ClientLearnerState& st = pool_.get(obs.id);
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
  return mean_cost;
}

FractionalDecision OnlineLearner::decide(const sim::EpochContext& ctx,
                                         const BudgetLedger& budget) {
  FEDL_PROFILE_SCOPE("learner.decide");
  FractionalDecision dec;
  const std::size_t k = ctx.available.size();
  dec.rho = rho_;
  if (k == 0) return dec;  // nothing available this epoch

  const double mean_cost = select_candidates(ctx);
  const std::size_t w = cand_.size();

  dec.ids.reserve(w);
  dec.cost.reserve(w);
  tau_.resize(w);    // τ^loc + τ^cm per candidate
  eta_.resize(w);    // η̂ per candidate
  delta_.resize(w);  // Δ̂ per candidate
  for (std::size_t i = 0; i < w; ++i) {
    const auto& obs = ctx.available[cand_[i]];
    dec.ids.push_back(obs.id);
    dec.cost.push_back(obs.cost);
    tau_[i] = obs.tau_loc + obs.tau_cm_est;
    const ClientLearnerState& st = pool_.get(obs.id);
    eta_[i] = st.eta;
    delta_[i] = st.delta;
  }

  // --- feasible set -------------------------------------------------------
  const double n_d = static_cast<double>(cfg_.n_min);

  // When the remaining budget cannot rent the n_min cheapest clients, the
  // constraints Σx ≥ n_eff and Σc·x ≤ cap would contradict each other (the
  // n_eff cheapest unit selections already overshoot the cap). Shrink the
  // participation floor to the largest affordable prefix of the cost-sorted
  // clients; when not even the single cheapest client is affordable, the
  // epoch is infeasible and the decision is empty (select nobody, spend
  // nothing) — the ledger must never overdraw. The pruning floor keeps the
  // n_min cheapest of E_t in the candidate set, so this prefix is the same
  // whether or not pruning ran.
  sorted_cost_ = dec.cost;
  std::sort(sorted_cost_.begin(), sorted_cost_.end());
  std::size_t n_eff = std::min<std::size_t>(cfg_.n_min, k);
  double cheapest_n = 0.0;
  {
    double prefix = 0.0;
    std::size_t affordable = 0;
    for (std::size_t i = 0; i < n_eff; ++i) {
      prefix += sorted_cost_[i];
      if (prefix > budget.remaining()) break;
      cheapest_n = prefix;
      ++affordable;
    }
    if (affordable == 0) {
      infeasible_epochs().add();
      dec.ids.clear();
      dec.cost.clear();
      return dec;
    }
    n_eff = affordable;
  }

  // Budget pacing: spend roughly pacing·n·c̄ per epoch so the horizon lands
  // inside the paper's T_C range, but never plan beyond what remains, and
  // always leave enough room for the n_eff cheapest clients (affordable by
  // construction above).
  double cap = cfg_.pacing * n_d * mean_cost;
  cap = std::max(cap, cheapest_n);
  cap = std::min(cap, budget.remaining());
  dec.cap = cap;
  dec.n_eff = n_eff;

  solver::FeasibleSet set;
  set.lo.assign(w + 1, 0.0);
  set.hi.assign(w + 1, 1.0);
  set.lo[w] = 1.0;
  set.hi[w] = cfg_.rho_max;
  {
    // Σ c_k x_k ≤ cap  (ρ coefficient 0).
    solver::Halfspace budget_hs;
    budget_hs.a = dec.cost;
    budget_hs.a.push_back(0.0);
    budget_hs.b = cap;
    set.halfspaces.push_back(std::move(budget_hs));
    // Σ x_k ≥ n_eff  ⇔  Σ (−1)·x_k ≤ −n_eff.
    solver::Halfspace part_hs;
    part_hs.a.assign(w + 1, -1.0);
    part_hs.a[w] = 0.0;
    part_hs.b = -static_cast<double>(n_eff);
    set.halfspaces.push_back(std::move(part_hs));
  }

  // --- descent step (8) -----------------------------------------------------
  anchor_.resize(w + 1);
  for (std::size_t i = 0; i < w; ++i)
    anchor_[i] = pool_.get(dec.ids[i]).xfrac;
  anchor_[w] = rho_;

  grad_f_.assign(w + 1, 0.0);
  double sum_xtau = 0.0;
  for (std::size_t i = 0; i < w; ++i) {
    grad_f_[i] = anchor_[w] * tau_[i];
    sum_xtau += anchor_[i] * tau_[i];
  }
  grad_f_[w] = sum_xtau;

  // Multipliers for the constraints present this epoch: μ^0 plus the μ^k of
  // the candidates.
  mu_local_.resize(w + 1);
  mu_local_[0] = mu0_;
  for (std::size_t i = 0; i < w; ++i)
    mu_local_[i + 1] = pool_.get(dec.ids[i]).mu;

  const double last_loss = last_loss_;
  const double theta = cfg_.theta;
  const std::vector<double>& eta = eta_;
  const std::vector<double>& delta = delta_;

  solver::LinearizedStep step;
  step.grad_f = grad_f_;
  step.anchor = anchor_;
  step.beta = cfg_.beta;
  step.mu = mu_local_;
  step.h = [w, &eta, &delta, last_loss, theta, n_d](
               const std::vector<double>& phi) {
    std::vector<double> h(w + 1);
    const double rho = phi[w];
    double gain = 0.0;
    for (std::size_t i = 0; i < w; ++i) gain += phi[i] * delta[i];
    h[0] = last_loss - (rho / n_d) * gain - theta;          // h^0
    for (std::size_t i = 0; i < w; ++i)
      h[i + 1] = eta[i] * phi[i] * rho - rho + 1.0;          // h^k
    return h;
  };
  step.h_grad_mu = [w, &eta, &delta, n_d](const std::vector<double>& phi,
                                          const std::vector<double>& mu) {
    std::vector<double> g(w + 1, 0.0);
    const double rho = phi[w];
    double gain = 0.0;
    for (std::size_t i = 0; i < w; ++i) {
      // ∂h^0/∂x_i and ∂h^{i}/∂x_i contributions.
      g[i] = -mu[0] * (rho / n_d) * delta[i] + mu[i + 1] * eta[i] * rho;
      gain += phi[i] * delta[i];
      // ∂h^{i}/∂ρ contribution.
      g[w] += mu[i + 1] * (eta[i] * phi[i] - 1.0);
    }
    g[w] += -mu[0] * gain / n_d;  // ∂h^0/∂ρ
    return g;
  };

  const solver::ProxSolverResult res =
      solver::minimize_projected(set, anchor_, step.make_objective());

  // Commit the fractional solution into persistent memory (candidates only;
  // pruned clients keep their fractional memory for future epochs).
  dec.x.resize(w);
  for (std::size_t i = 0; i < w; ++i) {
    dec.x[i] = clamp(res.x[i], 0.0, 1.0);
    pool_.touch(dec.ids[i]).xfrac = dec.x[i];
  }
  rho_ = clamp(res.x[w], 1.0, cfg_.rho_max);
  dec.rho = rho_;
  rho_gauge().set(rho_);
  return dec;
}

void OnlineLearner::observe(const FractionalDecision& frac,
                            const fl::EpochOutcome& outcome) {
  FEDL_PROFILE_SCOPE("learner.observe");
  // --- estimate updates -----------------------------------------------------
  last_loss_ = outcome.train_loss_all;
  const std::size_t n = outcome.selected.size();
  FEDL_CHECK_EQ(outcome.client_completed_iters.size(), n);
  FEDL_CHECK_EQ(outcome.client_eta.size(), n);
  FEDL_CHECK_EQ(outcome.client_loss_reduction.size(), n);
  // A client that dropped before finishing a single DANE iteration produced
  // no η/Δ observation, so its estimates must not be updated (EMAing η̂
  // toward the placeholder 0 would make the learner treat flaky clients as
  // fast convergers).
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t id = outcome.selected[i];
    FEDL_CHECK_LT(id, num_clients_);
    const double iters =
        static_cast<double>(outcome.client_completed_iters[i]);
    if (iters <= 0.0) continue;  // dropped at iteration 0: nothing observed
    ClientLearnerState& st = pool_.touch(id);
    ++st.seen;  // n_k for the width-explore bonus
    st.eta = (1.0 - cfg_.ema) * st.eta + cfg_.ema * outcome.client_eta[i];
    // The engine accumulates the reduction over the iterations the client
    // actually completed; dividing by that count gives the per-iteration
    // marginal Δ̂. Floor at zero so one noisy epoch can't turn a client's
    // estimate negative forever.
    const double per_iter =
        positive_part(outcome.client_loss_reduction[i]) / iters;
    st.delta = (1.0 - cfg_.ema) * st.delta + cfg_.ema * per_iter;
  }

  // --- dual ascent (9): μ ← [μ + δ h_t(Φ̃_t)]+ -------------------------------
  // h^0 is observed directly; h^k uses the realized η of selected clients and
  // the current estimate for unselected ones. Only the decision's candidates
  // have h^k ≠ 0 this epoch, so only their μ^k move: every other client's
  // update would be the no-op [μ + δ·0]+ = μ, and is skipped outright —
  // unavailable clients' duals are bit-identical before and after.
  const double rho = frac.rho;
  const double h0 = outcome.train_loss_all - cfg_.theta;
  mu0_ = clamp(positive_part(mu0_ + cfg_.delta * h0), 0.0, cfg_.mu_max);

  // Selected-id → outcome-index scratch (grow-only, cleared per epoch):
  // selected[i] inserts in order, so the assigned slot equals the outcome
  // index i.
  sel_index_.clear();
  for (std::size_t i = 0; i < outcome.selected.size(); ++i)
    sel_index_.insert(outcome.selected[i]);

  for (std::size_t i = 0; i < frac.ids.size(); ++i) {
    const std::size_t id = frac.ids[i];
    const std::size_t sel = sel_index_.find(id);
    const bool has_obs = sel != IdSlotMap::npos &&
                         outcome.client_completed_iters[sel] > 0;
    const double eta = has_obs ? outcome.client_eta[sel] : pool_.get(id).eta;
    const double h = eta * frac.x[i] * rho - rho + 1.0;
    const double mu_next =
        clamp(positive_part(pool_.get(id).mu + cfg_.delta * h), 0.0,
              cfg_.mu_max);
    // Don't allocate a slot just to store the default: a candidate whose
    // dual stays at 0 leaves no footprint.
    if (mu_next != 0.0 || pool_.contains(id)) pool_.touch(id).mu = mu_next;
  }
  mu0_gauge().set(mu0_);
  FEDL_DEBUG << "learner: mu0=" << mu0_ << " rho=" << rho_
             << " L=" << last_loss_;
}

}  // namespace fedl::core
