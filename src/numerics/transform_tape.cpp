#include "numerics/transform_tape.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <initializer_list>
#include <memory>
#include <type_traits>
#include <typeinfo>
#include <utility>

#include "common/require.hpp"
#include "numerics/compose.hpp"
#include "numerics/elementary.hpp"
#include "obs/obs.hpp"
#include "numerics/memo_cache.hpp"
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

// The small-|s| guards' predicate std::abs(s) * scale < bound, for
// scale >= 0.  hypot(re, im) >= max(|re|, |im|) and rounding is monotone,
// so a component at or over the bound already decides it; the hypot runs
// only when both components are under.  Scale 1 is exact, so the guards
// written std::abs(s) < bound use it too.
inline bool modulus_below(std::complex<double> s, double scale,
                          double bound) {
  return std::abs(s.real()) * scale < bound &&
         std::abs(s.imag()) * scale < bound && std::abs(s) * scale < bound;
}

}  // namespace

// ------------------------------- compiler --------------------------------

class TapeCompiler {
 public:
  using Op = TransformTape::Op;
  using OpCode = TransformTape::OpCode;

  TransformTape run(const DistPtr& root) {
    COSM_REQUIRE(root != nullptr, "cannot compile a null distribution");
    records_.reserve(kTypicalNodes);
    visits_.reserve(2 * kTypicalNodes);
    count_node(root.get(), kRootCtx);
    // Every visit emits one op (the node's own, or a LOAD); a Scaled
    // node's first visit adds its POP-ARG and a shared node's a STORE.
    std::size_t op_count = visits_.size();
    for (const Record& record : records_) {
      op_count += (record.kind == Kind::kScaled) + (record.count > 1);
    }
    tape_.ops_.reserve(op_count);
    tape_.params_.reserve(2 * records_.size());
    emit_node(root);
    COSM_REQUIRE(next_visit_ == visits_.size(),
                 "tape compiler passes made different visits");
    compute_depths();
    return std::move(tape_);
  }

 private:
  static constexpr int kRootCtx = 0;
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  // Initial record capacity: a device model has at most a few dozen
  // distinct (node, context) keys; the tables grow past it if they must.
  static constexpr std::size_t kTypicalNodes = 32;

  // The node types the compiler flattens; anything else is a generic
  // leaf.  resolve() tests them in this order, the common ones in device
  // models first.
  enum class Kind : std::uint8_t {
    kDegenerate,
    kGamma,
    kMixture,
    kConvolution,
    kCPoisson,
    kPKWait,
    kMM1K,
    kMG1K,
    kTiered,
    kScaled,
    kExponential,
    kGeneric,
  };

  // Exact-type test.  Every class tested is final, so it is the same
  // test as a dynamic_cast to T, without the hierarchy walk.
  template <class T>
  static bool is(const std::type_info& type) {
    static_assert(std::is_final_v<T>,
                  "an exact-type test stands in for dynamic_cast only "
                  "on a final class");
    return type == typeid(T);
  }

  static Kind resolve(const Distribution& d) {
    const std::type_info& type = typeid(d);
    if (is<Degenerate>(type)) return Kind::kDegenerate;
    if (is<Gamma>(type)) return Kind::kGamma;
    if (is<Mixture>(type)) return Kind::kMixture;
    if (is<Convolution>(type)) return Kind::kConvolution;
    if (is<CompoundPoissonConvolution>(type)) return Kind::kCPoisson;
    if (is<PKWaitingTime>(type)) return Kind::kPKWait;
    if (is<MM1KSojourn>(type)) return Kind::kMM1K;
    if (is<MG1KSojourn>(type)) return Kind::kMG1K;
    if (is<TieredService>(type)) return Kind::kTiered;
    if (is<Scaled>(type)) return Kind::kScaled;
    if (is<Exponential>(type)) return Kind::kExponential;
    return Kind::kGeneric;
  }

  template <class T>
  static const T& as(const Distribution* d) {
    return static_cast<const T&>(*d);
  }

  // One record per (node, context) occurrence key, in first-visit order.
  // The key pairs the node pointer with an argument-context id so CSE
  // never conflates X evaluated at s with X evaluated at c·s (the same
  // subtree under different Scaled wrappers).  Model trees have tens of
  // nodes, so the tables are flat vectors searched linearly.
  struct Record {
    const Distribution* dist;
    int ctx;
    Kind kind;
    std::uint32_t count = 0;
    std::uint32_t slot = kNoSlot;  // CSE slot, once stored
  };
  struct Context {
    int parent;
    std::uint64_t factor_bits;
  };

  std::uint32_t record_of(const Distribution* d, int ctx) {
    for (std::size_t i = 0; i < records_.size(); ++i) {
      if (records_[i].dist == d && records_[i].ctx == ctx) {
        return static_cast<std::uint32_t>(i);
      }
    }
    records_.push_back(Record{d, ctx, resolve(*d)});
    return static_cast<std::uint32_t>(records_.size() - 1);
  }

  // Context ids: 0 is the root; a (parent context, scale factor) chain
  // gets id index + 1 on first sight.
  int child_ctx(int parent, double factor) {
    const auto bits = std::bit_cast<std::uint64_t>(factor);
    for (std::size_t i = 0; i < contexts_.size(); ++i) {
      if (contexts_[i].parent == parent && contexts_[i].factor_bits == bits) {
        return static_cast<int>(i + 1);
      }
    }
    contexts_.push_back(Context{parent, bits});
    return static_cast<int>(contexts_.size());
  }

  // Pass 1: count how often each (node, context) occurs and resolve its
  // type, once.  Children are only visited on the first occurrence,
  // mirroring the emit pass where repeats become LOAD ops with no
  // children of their own, so both passes make the same visits in the
  // same order and the emit pass replays visits_ instead of looking keys
  // up again.
  void count_node(const Distribution* d, int ctx) {
    const std::uint32_t index = record_of(d, ctx);
    visits_.push_back(index);
    if (++records_[index].count > 1) return;
    switch (records_[index].kind) {
      case Kind::kMixture:
        for (const auto& c : as<Mixture>(d).components()) {
          count_node(c.dist.get(), ctx);
        }
        break;
      case Kind::kConvolution:
        for (const auto& p : as<Convolution>(d).parts()) {
          count_node(p.get(), ctx);
        }
        break;
      case Kind::kCPoisson: {
        const auto& cp = as<CompoundPoissonConvolution>(d);
        count_node(cp.base().get(), ctx);
        count_node(cp.extra().get(), ctx);
        break;
      }
      case Kind::kTiered: {
        const auto& ts = as<TieredService>(d);
        count_node(ts.hit().get(), ctx);
        count_node(ts.miss().get(), ctx);
        break;
      }
      case Kind::kScaled: {
        const auto& sc = as<Scaled>(d);
        count_node(sc.inner().get(), child_ctx(ctx, sc.factor()));
        break;
      }
      case Kind::kPKWait:
        count_node(as<PKWaitingTime>(d).service().get(), ctx);
        break;
      case Kind::kMG1K:
        count_node(as<MG1KSojourn>(d).service().get(), ctx);
        break;
      default:
        break;  // a leaf (closed-form or generic): no children
    }
  }

  // Pass 2: emit postfix ops; subtrees occurring more than once get a
  // STORE at their first emission and LOADs afterwards.
  void emit_node(const DistPtr& sp) {
    Record& record = records_[visits_[next_visit_++]];
    if (record.slot != kNoSlot) {
      push_op(OpCode::kLoad, record.slot, 0);
      return;
    }

    const Distribution* d = sp.get();
    switch (record.kind) {
      case Kind::kDegenerate:
        push_op(OpCode::kLeafDegenerate, 0,
                push_params({as<Degenerate>(d).value()}));
        break;
      case Kind::kExponential:
        push_op(OpCode::kLeafExponential, 0,
                push_params({as<Exponential>(d).rate()}));
        break;
      case Kind::kGamma: {
        const auto& ga = as<Gamma>(d);
        push_op(OpCode::kLeafGamma, 0, push_params({ga.shape(), ga.rate()}));
        break;
      }
      case Kind::kMM1K: {
        // capacity rides in the params array as a double and is cast back
        // at evaluation for the complex_pow MM1KSojourn::laplace calls.
        const auto& mk = as<MM1KSojourn>(d);
        push_op(OpCode::kLeafMM1K, 0,
                push_params({mk.arrival_rate(), mk.service_rate(),
                             static_cast<double>(mk.capacity()), mk.p0(),
                             mk.blocking()}));
        break;
      }
      case Kind::kMixture: {
        const auto& components = as<Mixture>(d).components();
        for (const auto& c : components) emit_node(c.dist);
        const std::uint32_t offset = param_offset();
        for (const auto& c : components) tape_.params_.push_back(c.weight);
        push_op(OpCode::kMix, static_cast<std::uint32_t>(components.size()),
                offset);
        break;
      }
      case Kind::kConvolution: {
        const auto& parts = as<Convolution>(d).parts();
        for (const auto& p : parts) emit_node(p);
        push_op(OpCode::kMul, static_cast<std::uint32_t>(parts.size()), 0);
        break;
      }
      case Kind::kCPoisson: {
        const auto& cp = as<CompoundPoissonConvolution>(d);
        emit_node(cp.base());
        emit_node(cp.extra());
        push_op(OpCode::kCPoisson, 0, push_params({cp.rate()}));
        break;
      }
      case Kind::kTiered: {
        // The miss weight is the node's stored 1 − h, not recomputed here,
        // so the tape's fused multiply-add chain matches the tree walk's
        // exactly (bit-identity contract).
        const auto& ts = as<TieredService>(d);
        emit_node(ts.hit());
        emit_node(ts.miss());
        push_op(OpCode::kTierMix, 0,
                push_params({ts.hit_ratio(), ts.miss_ratio()}));
        break;
      }
      case Kind::kScaled: {
        const auto& sc = as<Scaled>(d);
        push_op(OpCode::kScaleArg, 0, push_params({sc.factor()}));
        emit_node(sc.inner());
        push_op(OpCode::kPopArg, 0, 0);
        break;
      }
      case Kind::kPKWait: {
        const auto& pk = as<PKWaitingTime>(d);
        emit_node(pk.service());
        push_op(OpCode::kPKWait, 0,
                push_params({pk.arrival_rate(), pk.utilization()}));
        break;
      }
      case Kind::kMG1K: {
        const auto& gk = as<MG1KSojourn>(d);
        emit_node(gk.service());
        const std::uint32_t offset = param_offset();
        tape_.params_.push_back(gk.mean_service());
        tape_.params_.insert(tape_.params_.end(), gk.weights().begin(),
                             gk.weights().end());
        push_op(OpCode::kMG1KSojourn,
                static_cast<std::uint32_t>(gk.weights().size()), offset);
        break;
      }
      case Kind::kGeneric: {
        // Quadrature leaves, opaque LaplaceDistribution callables, unknown
        // subclasses: batched compatibility path via laplace_many.  Fold
        // the *value-based* distribution fingerprint so identically
        // parameterized generic leaves hash equal.
        const auto index = static_cast<std::uint32_t>(tape_.leaves_.size());
        tape_.leaves_.push_back(sp);
        push_op(OpCode::kLeafGeneric, index, 0, numerics::fingerprint(*d));
        break;
      }
    }

    if (record.count > 1) {
      record.slot = static_cast<std::uint32_t>(tape_.slot_count_++);
      push_op(OpCode::kStore, record.slot, 0);
    }
  }

  // Offset of the next params an op appends in place.
  std::uint32_t param_offset() const {
    return static_cast<std::uint32_t>(tape_.params_.size());
  }

  // Appends params and returns their offset.
  std::uint32_t push_params(std::initializer_list<double> values) {
    const std::uint32_t offset = param_offset();
    tape_.params_.insert(tape_.params_.end(), values);
    return offset;
  }

  // Appends an op and folds it, with the params appended since the
  // previous op (its own), into the fingerprint.
  void push_op(OpCode code, std::uint32_t a, std::uint32_t b,
               std::uint64_t extra = 0) {
    tape_.ops_.push_back(Op{code, a, b});
    std::uint64_t fp = tape_.fingerprint_;
    fp = hash_mix(fp, (static_cast<std::uint64_t>(code) << 32) | a);
    for (std::size_t i = folded_params_; i < tape_.params_.size(); ++i) {
      fp = hash_mix(fp, tape_.params_[i]);
    }
    if (extra != 0) fp = hash_mix(fp, extra);
    tape_.fingerprint_ = fp;
    folded_params_ = tape_.params_.size();
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
        case OpCode::kLeafMM1K:
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
  std::vector<Record> records_;
  std::vector<Context> contexts_;
  std::vector<std::uint32_t> visits_;  // record index of each visit
  std::size_t next_visit_ = 0;
  std::size_t folded_params_ = 0;
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
        degenerate_laplace_many(p[0], sv, values + top * batch, batch);
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
      case OpCode::kLeafGamma: {  // params [shape, rate]
        gamma_laplace_many(p[0], p[1], sv, values + top * batch, batch);
        ++top;
        break;
      }
      case OpCode::kLeafMM1K: {
        std::complex<double>* dst = values + top * batch;
        const double arrival = p[0];
        const double service = p[1];
        const auto capacity = static_cast<unsigned>(p[2]);
        const double p0 = p[3];
        const double blocking = p[4];
        for (std::size_t i = 0; i < batch; ++i) {
          const std::complex<double> sc = sv[i];
          if (modulus_below(sc, 1.0, 1e-14)) {
            dst[i] = std::complex<double>(1.0, 0.0);
            continue;
          }
          const std::complex<double> ratio_pow =
              complex_pow(arrival / (service + sc), capacity);
          dst[i] = service * p0 / (1.0 - blocking) * (1.0 - ratio_pow) /
                   (service - arrival + sc);
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
          for (std::size_t c = 0; c < n; ++c) {
            product = complex_mul_std(product, base[c * batch + i]);
          }
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
        compound_poisson_many(p[0], values + (top - 2) * batch,
                              values + (top - 1) * batch, batch);
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
          if (modulus_below(sc, 1.0, 1e-14)) {
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
          if (modulus_below(sc, mean_service, 1e-8)) {
            lbv[i] = std::complex<double>(1.0, 0.0);
            continue;
          }
          const std::complex<double> lb = lbv[i];
          const std::complex<double> residual =
              (1.0 - lb) / (sc * mean_service);
          std::complex<double> total = weights[0] * lb;
          std::complex<double> lb_power = 1.0;
          for (std::size_t k = 1; k < n; ++k) {
            total += complex_mul(complex_mul(weights[k] * residual, lb_power),
                                 lb);
            lb_power = complex_mul(lb_power, lb);
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

}  // namespace cosm::numerics
