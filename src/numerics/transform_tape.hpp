// Transform tape: the distribution tree compiled to a flat evaluation
// kernel.
//
// Motivation.  A device's response-time transform is an immutable tree of
// small nodes (Mixture / Convolution / CompoundPoissonConvolution /
// queueing sojourn formulas / parametric leaves).  The scalar pipeline
// walks that tree once per contour node: for an Euler inversion at M=20
// that is 41 virtual-dispatch tree walks through shared_ptr indirection,
// re-evaluating every shared subtree (the disk sojourn appears under
// index/meta/data misses; the P–K waiting time appears twice in the
// response convolution) at every node.  Since the tree never changes
// after model construction, all of that work can be hoisted: compile the
// tree ONCE into a flat postfix program over POD ops, then run a stack
// machine over whole contour batches.
//
// The tape IR.  Ops are {opcode, a, b} triples (12 bytes); `a` is an op
// count / slot / leaf index, `b` an offset into a flat params array of
// doubles.  Leaf ops (LEAF-DEGENERATE, LEAF-EXPONENTIAL, LEAF-GAMMA,
// LEAF-MM1K) evaluate closed forms from params; combinator
// ops (MUL for Convolution, MIX for Mixture, CPOISSON for the union
// operation's compound-Poisson exponential, PK-WAIT and MG1K-SOJOURN for
// the queueing formulas) fold the value stack; SCALE-ARG / POP-ARG maintain an
// argument stack so Scaled subtrees evaluate at c·s; STORE / LOAD give
// common-subexpression elimination — a subtree shared k times is
// evaluated once and copied k-1 times.  Leaves with no closed form
// (quadrature distributions, opaque LaplaceDistribution callables) become
// LEAF-GENERIC ops that call Distribution::laplace_many — the
// compatibility path, still batched, never a compile failure.  The
// DIV-BY-S op of CDF inversion (inverting L(s)/s instead of L(s)) is
// applied by numerics::invert_cdf after evaluation rather than stored on
// the tape, so one compiled tape evaluation serves both the density and
// the CDF of each point.
//
// Compile.  compile() runs two passes over the tree.  The first visits
// each (node, argument context) key once per occurrence, counts the
// occurrences and resolves the node's concrete type once per key, by an
// exact typeid test (every Distribution subclass is final, so that is a
// dynamic_cast without the hierarchy walk).  The second replays the same
// visits in the same order and emits the ops, a STORE after a shared
// key's first emission and a LOAD for each later occurrence.  The keys,
// their counts and CSE slots live in flat vectors searched linearly (a
// device model has tens of nodes); ops and params are appended in place
// into storage reserved up front, so a compile makes a handful of
// allocations whatever the tree.  The op stream, params, slots and
// fingerprint are a function of the tree alone.
//
// Batching contract.  evaluate(s, out) fills out[i] = L(s[i]) for every i
// with values BIT-IDENTICAL to the scalar Distribution::laplace walk:
// every op replicates its node's arithmetic expression in the node's
// evaluation order, per batch element.  This is a hard guarantee, not a
// tolerance — tests/numerics/test_transform_tape.cpp asserts exact double
// equality for every Distribution subclass and for fuzzed random trees,
// and the perf harness (bench/perf_numerics_tape) gates on it.  The
// speedup comes from removing dispatch, allocation, and repeated
// shared-subtree work, and from running the Gamma, Degenerate and
// compound-Poisson ops as vectorized loops over the branch-free kernels
// of numerics/elementary.hpp, four lanes wide on an x86-64-v3 host and
// two on the baseline ISA, with the same bits either way.  Those kernels
// are also what the tree walk's Gamma::laplace, Degenerate::laplace and
// CompoundPoissonConvolution::laplace call per point, and the tape's
// other complex products go through the complex_mul_std / complex_pow
// forms the tree walk uses, so tape and tree still run the same
// arithmetic per element; the tape never reorders it.
//
// Allocation.  Steady-state evaluation allocates nothing: workspaces
// (value stack, scaled-argument batches, CSE slots) are leased from a
// thread-local pool and sized once per tape.  The inversion entry point
// (invert_cdf) reuses the contour scratch of numerics/lt_inversion.cpp the
// same way.
//
// Fingerprints.  fingerprint() folds the full op stream and parameter
// values (generic leaves contribute numerics::fingerprint of the wrapped
// distribution) into a 64-bit key.  Two tapes compiled from identically
// constructed trees — e.g. the homogeneous devices the pipeline builds
// from equal DeviceParams — fingerprint equal, which is what lets
// core::PredictionCache share CDF entries across devices.  The
// fingerprint is structural: it distinguishes a shared subtree from two
// equal copies (same values, different sharing), which only ever costs a
// cache miss, never a wrong hit.
//
// Thread-safety: a compiled tape is immutable; evaluate() and every entry
// point are safe to call concurrently from any number of threads.
#pragma once

#include <complex>
#include <cstdint>
#include <span>
#include <vector>

#include "numerics/distribution.hpp"
#include "numerics/lt_inversion.hpp"

namespace cosm::numerics {

class TransformTape {
 public:
  // An empty (default-constructed) tape; compiled() is false and
  // evaluation throws.  Exists so owners can default-construct members.
  TransformTape() = default;

  // Compiles `root` into a tape.  Never fails on exotic nodes — anything
  // the compiler cannot pattern-match becomes a generic batched leaf.
  // The tape keeps the generic leaves' DistPtrs alive; flattened nodes
  // are fully copied into the op/param arrays.
  static TransformTape compile(const DistPtr& root);

  bool compiled() const { return !ops_.empty(); }

  // Batched transform evaluation: out[i] = L(s[i]), bit-identical to the
  // scalar tree walk (see batching contract above).  Preconditions:
  // compiled(), s.size() == out.size().
  void evaluate(std::span<const std::complex<double>> s,
                std::span<std::complex<double>> out) const;

  // The tape's one inversion entry point: numerics::invert_cdf over
  // evaluate(), so out[i] holds F, its verdict and f at ts[i] from ONE
  // batched evaluation over every contour.  Bit-identical to invert_cdf
  // over the scalar tree walk.  Preconditions as invert_cdf's.
  void invert_cdf(std::span<const double> ts, int m,
                  std::span<CdfDensityPoint> out) const;

  // Structural 64-bit identity of the compiled program (see header doc).
  std::uint64_t fingerprint() const { return fingerprint_; }

  // Introspection for tests, benches, and cache diagnostics.
  std::size_t op_count() const { return ops_.size(); }
  std::size_t slot_count() const { return slot_count_; }
  std::size_t generic_leaf_count() const { return leaves_.size(); }

 private:
  // The opcode values are folded into fingerprint(), so they stay fixed:
  // values 3, 4, 5, 7, 8 and 14 belonged to retired ops and are not
  // reused.
  enum class OpCode : std::uint8_t {
    kLeafDegenerate = 0,   // params [value]
    kLeafExponential = 1,  // params [rate]
    kLeafGamma = 2,        // params [shape, rate]
    kLeafMM1K = 6,         // params [arrival, service, capacity, p0, blocking]
    kLeafGeneric = 9,      // a = index into leaves_; calls laplace_many
    kMul = 10,             // a = child count (Convolution)
    kMix = 11,             // a = child count, params [w0, ..., w_{a-1}]
    kTierMix = 12,         // params [hit_ratio, miss_ratio]; children hit,
                           // miss (TieredService — distinct from kMix so
                           // tiered trees stay structurally distinct)
    kCPoisson = 13,        // params [rate]; children base, extra
    kScaleArg = 15,        // params [factor]: push arg batch factor * current
    kPopArg = 16,          // pop the argument stack
    kPKWait = 17,          // params [arrival_rate, utilization]; child L[B]
    kMG1KSojourn = 18,     // a = weights, params [mean_service, w0, ...]
    kStore = 19,           // a = slot: copy stack top into CSE slot
    kLoad = 20,            // a = slot: push CSE slot
  };

  struct Op {
    OpCode code;
    std::uint32_t a = 0;
    std::uint32_t b = 0;
  };

  friend class TapeCompiler;

  std::vector<Op> ops_;
  std::vector<double> params_;
  std::vector<DistPtr> leaves_;  // generic-leaf distributions, by index
  std::size_t slot_count_ = 0;
  std::size_t value_depth_ = 0;  // max value-stack height over the program
  std::size_t arg_depth_ = 0;    // max *scaled* argument batches live
  std::uint64_t fingerprint_ = 0;
};

}  // namespace cosm::numerics
