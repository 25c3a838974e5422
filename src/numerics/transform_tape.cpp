#include "numerics/transform_tape.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <utility>

#include "common/require.hpp"
#include "numerics/compose.hpp"
#include "obs/obs.hpp"
#include "numerics/memo_cache.hpp"
#include "numerics/order_statistics.hpp"
#include "numerics/phase_type.hpp"
#include "numerics/transform_nodes.hpp"

namespace cosm::numerics {

namespace {

// Evaluation workspace, leased from a thread-local free list so steady
// state allocates nothing and re-entrant evaluations (a generic leaf
// whose laplace() runs its own inversion) never share buffers.
struct TapeWorkspace {
  std::vector<std::complex<double>> values;  // value stack, batch-major
  std::vector<std::complex<double>> args;    // scaled-argument batches
  std::vector<std::complex<double>> slots;   // CSE slots
  std::vector<const std::complex<double>*> arg_stack;
};

class WorkspaceLease {
 public:
  WorkspaceLease() : ws_(acquire()) {}
  ~WorkspaceLease() { pool().push_back(std::move(ws_)); }
  WorkspaceLease(const WorkspaceLease&) = delete;
  WorkspaceLease& operator=(const WorkspaceLease&) = delete;
  TapeWorkspace* operator->() { return ws_.get(); }

 private:
  static std::vector<std::unique_ptr<TapeWorkspace>>& pool() {
    thread_local std::vector<std::unique_ptr<TapeWorkspace>> free_list;
    return free_list;
  }
  static std::unique_ptr<TapeWorkspace> acquire() {
    auto& free_list = pool();
    if (free_list.empty()) return std::make_unique<TapeWorkspace>();
    auto ws = std::move(free_list.back());
    free_list.pop_back();
    return ws;
  }
  std::unique_ptr<TapeWorkspace> ws_;
};

}  // namespace

// ------------------------------- compiler --------------------------------

class TapeCompiler {
 public:
  using Op = TransformTape::Op;
  using OpCode = TransformTape::OpCode;

  TransformTape run(const DistPtr& root) {
    COSM_REQUIRE(root != nullptr, "cannot compile a null distribution");
    count_node(root.get(), kRootCtx);
    emit_node(root, kRootCtx);
    compute_depths();
    return std::move(tape_);
  }

 private:
  static constexpr int kRootCtx = 0;
  // Occurrence keys pair the node pointer with an argument-context id so
  // CSE never conflates X evaluated at s with X evaluated at c·s (the
  // same subtree under different Scaled wrappers).
  using Key = std::pair<const Distribution*, int>;

  // Context ids are allocated on first sight in the counting pass and
  // looked up (never created) in the emit pass, so both passes see the
  // same ids for the same (parent context, scale factor) chains.
  int child_ctx(int parent, double factor, bool create) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(factor));
    std::memcpy(&bits, &factor, sizeof(bits));
    const auto key = std::make_pair(parent, bits);
    auto it = ctx_ids_.find(key);
    if (it == ctx_ids_.end()) {
      COSM_REQUIRE(create, "tape compiler context id missing in emit pass");
      it = ctx_ids_.emplace(key, next_ctx_++).first;
    }
    return it->second;
  }

  // Pass 1: count how often each (node, context) occurs.  Children are
  // only visited on the first occurrence, mirroring the emit pass where
  // repeats become LOAD ops with no children of their own.
  void count_node(const Distribution* d, int ctx) {
    if (++counts_[Key(d, ctx)] > 1) return;
    if (const auto* mix = dynamic_cast<const Mixture*>(d)) {
      for (const auto& c : mix->components()) count_node(c.dist.get(), ctx);
    } else if (const auto* conv = dynamic_cast<const Convolution*>(d)) {
      for (const auto& p : conv->parts()) count_node(p.get(), ctx);
    } else if (const auto* cp =
                   dynamic_cast<const CompoundPoissonConvolution*>(d)) {
      count_node(cp->base().get(), ctx);
      count_node(cp->extra().get(), ctx);
    } else if (const auto* ts = dynamic_cast<const TieredService*>(d)) {
      count_node(ts->hit().get(), ctx);
      count_node(ts->miss().get(), ctx);
    } else if (const auto* sc = dynamic_cast<const Scaled*>(d)) {
      count_node(sc->inner().get(),
                 child_ctx(ctx, sc->factor(), /*create=*/true));
    } else if (const auto* sh = dynamic_cast<const Shifted*>(d)) {
      count_node(sh->inner().get(), ctx);
    } else if (const auto* pk = dynamic_cast<const PKWaitingTime*>(d)) {
      count_node(pk->service().get(), ctx);
    } else if (const auto* gk = dynamic_cast<const MG1KSojourn*>(d)) {
      count_node(gk->service().get(), ctx);
    }
    // Every other type is a leaf (closed-form or generic): no children.
  }

  // Pass 2: emit postfix ops; subtrees occurring more than once get a
  // STORE at their first emission and LOADs afterwards.
  void emit_node(const DistPtr& sp, int ctx) {
    const Distribution* d = sp.get();
    const Key key(d, ctx);
    if (const auto slot_it = cse_slots_.find(key);
        slot_it != cse_slots_.end()) {
      push_op(OpCode::kLoad, slot_it->second, 0);
      return;
    }

    if (const auto* deg = dynamic_cast<const Degenerate*>(d)) {
      push_op(OpCode::kLeafDegenerate, 0, push_params({deg->value()}));
    } else if (const auto* ex = dynamic_cast<const Exponential*>(d)) {
      push_op(OpCode::kLeafExponential, 0, push_params({ex->rate()}));
    } else if (const auto* ga = dynamic_cast<const Gamma*>(d)) {
      push_op(OpCode::kLeafGamma, 0, push_params({ga->shape(), ga->rate()}));
    } else if (const auto* un = dynamic_cast<const Uniform*>(d)) {
      push_op(OpCode::kLeafUniform, 0, push_params({un->lo(), un->hi()}));
    } else if (const auto* er = dynamic_cast<const Erlang*>(d)) {
      // Erlang::laplace is gamma_laplace with the stage count as the
      // shape; the op keeps its own code so the fingerprint tells the
      // two leaves apart.
      push_op(OpCode::kLeafErlang, 0,
              push_params({static_cast<double>(er->stages()), er->rate()}));
    } else if (const auto* he = dynamic_cast<const HyperExponential*>(d)) {
      std::vector<double> params;
      params.reserve(2 * he->branches().size());
      for (const auto& branch : he->branches()) {
        params.push_back(branch.probability);
        params.push_back(branch.rate);
      }
      push_op(OpCode::kLeafHyperExp,
              static_cast<std::uint32_t>(he->branches().size()),
              push_params(params));
    } else if (const auto* mk = dynamic_cast<const MM1KSojourn*>(d)) {
      // capacity rides in the params array as a double and is cast back
      // to int at evaluation so the tape calls the exact
      // pow(complex, int) overload MM1KSojourn::laplace calls.
      push_op(OpCode::kLeafMM1K, 0,
              push_params({mk->arrival_rate(), mk->service_rate(),
                           static_cast<double>(mk->capacity()), mk->p0(),
                           mk->blocking()}));
    } else if (const auto* os = dynamic_cast<const OrderStatistic*>(d)) {
      // The base distribution is already folded into the combined
      // F_(k:n) grid at construction, so the op is a leaf: [dt, F...] in
      // params, grid size in `a`.  MIN-OF-K and KTH-OF-N share an
      // evaluator; the distinct opcodes keep min-of-n and k-of-n tapes
      // structurally distinct in fingerprint().
      std::vector<double> params;
      params.reserve(1 + os->grid().size());
      params.push_back(os->grid_dt());
      for (const double f : os->grid()) params.push_back(f);
      push_op(os->k() == 1 ? OpCode::kMinOfK : OpCode::kKthOfN,
              static_cast<std::uint32_t>(os->grid().size()),
              push_params(params));
    } else if (const auto* mix = dynamic_cast<const Mixture*>(d)) {
      std::vector<double> weights;
      weights.reserve(mix->components().size());
      for (const auto& c : mix->components()) {
        emit_node(c.dist, ctx);
        weights.push_back(c.weight);
      }
      push_op(OpCode::kMix, static_cast<std::uint32_t>(weights.size()),
              push_params(weights));
    } else if (const auto* conv = dynamic_cast<const Convolution*>(d)) {
      for (const auto& p : conv->parts()) emit_node(p, ctx);
      push_op(OpCode::kMul, static_cast<std::uint32_t>(conv->parts().size()),
              0);
    } else if (const auto* cp =
                   dynamic_cast<const CompoundPoissonConvolution*>(d)) {
      emit_node(cp->base(), ctx);
      emit_node(cp->extra(), ctx);
      push_op(OpCode::kCPoisson, 0, push_params({cp->rate()}));
    } else if (const auto* ts = dynamic_cast<const TieredService*>(d)) {
      // The miss weight is the node's stored 1 − h, not recomputed here,
      // so the tape's fused multiply-add chain matches the tree walk's
      // exactly (bit-identity contract).
      emit_node(ts->hit(), ctx);
      emit_node(ts->miss(), ctx);
      push_op(OpCode::kTierMix, 0,
              push_params({ts->hit_ratio(), ts->miss_ratio()}));
    } else if (const auto* sc = dynamic_cast<const Scaled*>(d)) {
      push_op(OpCode::kScaleArg, 0, push_params({sc->factor()}));
      emit_node(sc->inner(), child_ctx(ctx, sc->factor(), /*create=*/false));
      push_op(OpCode::kPopArg, 0, 0);
    } else if (const auto* sh = dynamic_cast<const Shifted*>(d)) {
      emit_node(sh->inner(), ctx);
      push_op(OpCode::kShift, 0, push_params({sh->offset()}));
    } else if (const auto* pk = dynamic_cast<const PKWaitingTime*>(d)) {
      emit_node(pk->service(), ctx);
      push_op(OpCode::kPKWait, 0,
              push_params({pk->arrival_rate(), pk->utilization()}));
    } else if (const auto* gk = dynamic_cast<const MG1KSojourn*>(d)) {
      emit_node(gk->service(), ctx);
      std::vector<double> params;
      params.reserve(1 + gk->weights().size());
      params.push_back(gk->mean_service());
      for (double w : gk->weights()) params.push_back(w);
      push_op(OpCode::kMG1KSojourn,
              static_cast<std::uint32_t>(gk->weights().size()),
              push_params(params));
    } else {
      // Quadrature leaves, opaque LaplaceDistribution callables, unknown
      // subclasses: batched compatibility path via laplace_many.  Fold
      // the *value-based* distribution fingerprint so identically
      // parameterized generic leaves hash equal.
      const auto index = static_cast<std::uint32_t>(tape_.leaves_.size());
      tape_.leaves_.push_back(sp);
      push_op(OpCode::kLeafGeneric, index, 0, numerics::fingerprint(*d));
    }

    if (counts_.at(key) > 1) {
      const auto slot = static_cast<std::uint32_t>(tape_.slot_count_++);
      push_op(OpCode::kStore, slot, 0);
      cse_slots_.emplace(key, slot);
    }
  }

  // Appends params and returns their offset; folds them into the
  // fingerprint alongside the owning op in push_op.
  std::uint32_t push_params(const std::vector<double>& values) {
    const auto offset = static_cast<std::uint32_t>(tape_.params_.size());
    tape_.params_.insert(tape_.params_.end(), values.begin(), values.end());
    pending_param_count_ = values.size();
    return offset;
  }

  void push_op(OpCode code, std::uint32_t a, std::uint32_t b,
               std::uint64_t extra = 0) {
    tape_.ops_.push_back(Op{code, a, b});
    std::uint64_t fp = tape_.fingerprint_;
    fp = hash_mix(fp, (static_cast<std::uint64_t>(code) << 32) | a);
    for (std::size_t i = 0; i < pending_param_count_; ++i) {
      fp = hash_mix(fp, tape_.params_[b + i]);
    }
    if (extra != 0) fp = hash_mix(fp, extra);
    tape_.fingerprint_ = fp;
    pending_param_count_ = 0;
  }

  // Replays the op stream's stack effects to size the workspaces.
  void compute_depths() {
    std::size_t value_height = 0;
    std::size_t arg_height = 0;
    for (const Op& op : tape_.ops_) {
      switch (op.code) {
        case OpCode::kLeafDegenerate:
        case OpCode::kLeafExponential:
        case OpCode::kLeafGamma:
        case OpCode::kLeafUniform:
        case OpCode::kLeafErlang:
        case OpCode::kLeafHyperExp:
        case OpCode::kLeafMM1K:
        case OpCode::kMinOfK:
        case OpCode::kKthOfN:
        case OpCode::kLeafGeneric:
        case OpCode::kLoad:
          ++value_height;
          break;
        case OpCode::kMul:
        case OpCode::kMix:
          value_height -= op.a - 1;
          break;
        case OpCode::kCPoisson:
        case OpCode::kTierMix:
          --value_height;
          break;
        case OpCode::kShift:
        case OpCode::kPKWait:
        case OpCode::kMG1KSojourn:
        case OpCode::kStore:
          break;
        case OpCode::kScaleArg:
          ++arg_height;
          tape_.arg_depth_ = std::max(tape_.arg_depth_, arg_height);
          break;
        case OpCode::kPopArg:
          --arg_height;
          break;
      }
      tape_.value_depth_ = std::max(tape_.value_depth_, value_height);
    }
    COSM_REQUIRE(value_height == 1 && arg_height == 0,
                 "tape compiler produced an unbalanced program");
  }

  TransformTape tape_;
  std::map<Key, int> counts_;
  std::map<Key, std::uint32_t> cse_slots_;
  std::map<std::pair<int, std::uint64_t>, int> ctx_ids_;
  int next_ctx_ = 1;
  std::size_t pending_param_count_ = 0;
};

TransformTape TransformTape::compile(const DistPtr& root) {
  obs::Span span("tape.compile");
  TransformTape tape = TapeCompiler().run(root);
  if (obs::enabled()) {
    obs::add(obs::Counter::kTapeCompiles);
    obs::add(obs::Counter::kTapeOps,
             static_cast<std::uint64_t>(tape.ops_.size()));
  }
  return tape;
}

// ------------------------------- evaluator -------------------------------

void TransformTape::evaluate(std::span<const std::complex<double>> s,
                             std::span<std::complex<double>> out) const {
  COSM_REQUIRE(compiled(), "cannot evaluate an empty transform tape");
  COSM_REQUIRE(s.size() == out.size(),
               "evaluate spans must have equal length");
  if (s.empty()) return;
  if (obs::enabled()) {
    obs::add(obs::Counter::kTapeEvalBatches);
    obs::add(obs::Counter::kTapeEvalPoints,
             static_cast<std::uint64_t>(s.size()));
  }
  const std::size_t batch = s.size();

  WorkspaceLease ws;
  ws->values.resize(value_depth_ * batch);
  ws->args.resize(arg_depth_ * batch);
  ws->slots.resize(slot_count_ * batch);
  ws->arg_stack.clear();
  ws->arg_stack.push_back(s.data());

  std::complex<double>* const values = ws->values.data();
  std::complex<double>* const args = ws->args.data();
  std::complex<double>* const slots = ws->slots.data();
  std::size_t top = 0;       // value-stack height, in batches
  std::size_t arg_used = 0;  // scaled-argument batches in use

  for (const Op& op : ops_) {
    const std::complex<double>* const sv = ws->arg_stack.back();
    const double* const p = params_.data() + op.b;
    switch (op.code) {
      case OpCode::kLeafDegenerate: {
        std::complex<double>* dst = values + top * batch;
        const double value = p[0];
        for (std::size_t i = 0; i < batch; ++i) {
          dst[i] = std::exp(-sv[i] * value);
        }
        ++top;
        break;
      }
      case OpCode::kLeafExponential: {
        std::complex<double>* dst = values + top * batch;
        const double rate = p[0];
        for (std::size_t i = 0; i < batch; ++i) {
          dst[i] = rate / (rate + sv[i]);
        }
        ++top;
        break;
      }
      case OpCode::kLeafGamma:
      case OpCode::kLeafErlang: {  // params [shape or stages, rate]
        std::complex<double>* dst = values + top * batch;
        const double shape = p[0];
        const double rate = p[1];
        for (std::size_t i = 0; i < batch; ++i) {
          dst[i] = gamma_laplace(shape, rate, sv[i]);
        }
        ++top;
        break;
      }
      case OpCode::kLeafUniform: {
        std::complex<double>* dst = values + top * batch;
        const double lo = p[0];
        const double hi = p[1];
        for (std::size_t i = 0; i < batch; ++i) {
          const std::complex<double> sc = sv[i];
          if (std::abs(sc) < 1e-8) {
            dst[i] = 1.0 - sc * (0.5 * (lo + hi)) +
                     sc * sc * ((lo * lo + lo * hi + hi * hi) / 6.0);
          } else {
            dst[i] = (std::exp(-sc * lo) - std::exp(-sc * hi)) /
                     (sc * (hi - lo));
          }
        }
        ++top;
        break;
      }
      case OpCode::kLeafHyperExp: {
        std::complex<double>* dst = values + top * batch;
        const std::size_t branches = op.a;
        for (std::size_t i = 0; i < batch; ++i) {
          std::complex<double> total = 0.0;
          for (std::size_t k = 0; k < branches; ++k) {
            total += p[2 * k] * p[2 * k + 1] / (p[2 * k + 1] + sv[i]);
          }
          dst[i] = total;
        }
        ++top;
        break;
      }
      case OpCode::kLeafMM1K: {
        std::complex<double>* dst = values + top * batch;
        const double arrival = p[0];
        const double service = p[1];
        const int capacity = static_cast<int>(p[2]);
        const double p0 = p[3];
        const double blocking = p[4];
        for (std::size_t i = 0; i < batch; ++i) {
          const std::complex<double> sc = sv[i];
          if (std::abs(sc) < 1e-14) {
            dst[i] = std::complex<double>(1.0, 0.0);
            continue;
          }
          const std::complex<double> ratio_pow =
              std::pow(arrival / (service + sc), capacity);
          dst[i] = service * p0 / (1.0 - blocking) * (1.0 - ratio_pow) /
                   (service - arrival + sc);
        }
        ++top;
        break;
      }
      case OpCode::kMinOfK:
      case OpCode::kKthOfN: {
        std::complex<double>* dst = values + top * batch;
        const double dt = p[0];
        const double* const cdf = p + 1;
        const std::size_t count = op.a;
        for (std::size_t i = 0; i < batch; ++i) {
          dst[i] = detail::piecewise_cdf_laplace(sv[i], dt, cdf, count);
        }
        ++top;
        break;
      }
      case OpCode::kLeafGeneric: {
        std::complex<double>* dst = values + top * batch;
        leaves_[op.a]->laplace_many(
            std::span<const std::complex<double>>(sv, batch),
            std::span<std::complex<double>>(dst, batch));
        ++top;
        break;
      }
      case OpCode::kMul: {
        const std::size_t n = op.a;
        std::complex<double>* base = values + (top - n) * batch;
        for (std::size_t i = 0; i < batch; ++i) {
          std::complex<double> product = 1.0;
          for (std::size_t c = 0; c < n; ++c) product *= base[c * batch + i];
          base[i] = product;
        }
        top -= n - 1;
        break;
      }
      case OpCode::kMix: {
        const std::size_t n = op.a;
        std::complex<double>* base = values + (top - n) * batch;
        for (std::size_t i = 0; i < batch; ++i) {
          std::complex<double> sum = 0.0;
          for (std::size_t c = 0; c < n; ++c) {
            sum += p[c] * base[c * batch + i];
          }
          base[i] = sum;
        }
        top -= n - 1;
        break;
      }
      case OpCode::kCPoisson: {
        std::complex<double>* base = values + (top - 2) * batch;
        const std::complex<double>* extra = values + (top - 1) * batch;
        const double rate = p[0];
        for (std::size_t i = 0; i < batch; ++i) {
          base[i] = base[i] * std::exp(rate * (extra[i] - 1.0));
        }
        --top;
        break;
      }
      case OpCode::kTierMix: {
        std::complex<double>* hit = values + (top - 2) * batch;
        const std::complex<double>* miss = values + (top - 1) * batch;
        for (std::size_t i = 0; i < batch; ++i) {
          hit[i] = p[0] * hit[i] + p[1] * miss[i];
        }
        --top;
        break;
      }
      case OpCode::kShift: {
        std::complex<double>* inner = values + (top - 1) * batch;
        const double offset = p[0];
        for (std::size_t i = 0; i < batch; ++i) {
          inner[i] = std::exp(-sv[i] * offset) * inner[i];
        }
        break;
      }
      case OpCode::kScaleArg: {
        std::complex<double>* dst = args + arg_used * batch;
        const double factor = p[0];
        for (std::size_t i = 0; i < batch; ++i) dst[i] = factor * sv[i];
        ws->arg_stack.push_back(dst);
        ++arg_used;
        break;
      }
      case OpCode::kPopArg: {
        ws->arg_stack.pop_back();
        --arg_used;
        break;
      }
      case OpCode::kPKWait: {
        std::complex<double>* lb = values + (top - 1) * batch;
        const double arrival = p[0];
        const double rho = p[1];
        for (std::size_t i = 0; i < batch; ++i) {
          const std::complex<double> sc = sv[i];
          if (std::abs(sc) < 1e-14) {
            lb[i] = std::complex<double>(1.0, 0.0);
            continue;
          }
          lb[i] = (1.0 - rho) * sc / (arrival * lb[i] + sc - arrival);
        }
        break;
      }
      case OpCode::kMG1KSojourn: {
        std::complex<double>* lbv = values + (top - 1) * batch;
        const double mean_service = p[0];
        const double* const weights = p + 1;
        const std::size_t n = op.a;
        for (std::size_t i = 0; i < batch; ++i) {
          const std::complex<double> sc = sv[i];
          if (std::abs(sc) * mean_service < 1e-8) {
            lbv[i] = std::complex<double>(1.0, 0.0);
            continue;
          }
          const std::complex<double> lb = lbv[i];
          const std::complex<double> residual =
              (1.0 - lb) / (sc * mean_service);
          std::complex<double> total = weights[0] * lb;
          std::complex<double> lb_power = 1.0;
          for (std::size_t k = 1; k < n; ++k) {
            total += weights[k] * residual * lb_power * lb;
            lb_power *= lb;
          }
          lbv[i] = total;
        }
        break;
      }
      case OpCode::kStore: {
        const std::complex<double>* src = values + (top - 1) * batch;
        std::complex<double>* dst = slots + op.a * batch;
        for (std::size_t i = 0; i < batch; ++i) dst[i] = src[i];
        break;
      }
      case OpCode::kLoad: {
        const std::complex<double>* src = slots + op.a * batch;
        std::complex<double>* dst = values + top * batch;
        for (std::size_t i = 0; i < batch; ++i) dst[i] = src[i];
        ++top;
        break;
      }
    }
  }
  COSM_REQUIRE(top == 1, "tape evaluation finished with a non-unit stack");
  const std::complex<double>* result = values;
  for (std::size_t i = 0; i < batch; ++i) out[i] = result[i];
}

// ----------------------------- entry points ------------------------------

BatchLaplaceFn TransformTape::batch_fn() const {
  return [this](std::span<const std::complex<double>> s,
                std::span<std::complex<double>> out) { evaluate(s, out); };
}

double TransformTape::cdf(double t, int m) const {
  return cdf_from_laplace(batch_fn(), t, m);
}

std::vector<double> TransformTape::cdf_many(std::span<const double> ts,
                                            int m) const {
  return cdf_many_from_laplace(batch_fn(), ts, m);
}

CdfDensityPoint TransformTape::cdf_density(double t, int m) const {
  return cdf_density_from_laplace(batch_fn(), t, m);
}

double TransformTape::quantile(double p, double mean_hint,
                               double t_max) const {
  return quantile_from_laplace(batch_fn(), p, mean_hint, t_max);
}

}  // namespace cosm::numerics
