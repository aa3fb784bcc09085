// engine.hpp — the unified modular-multiplication backend interface.
//
// The tree holds many Montgomery-multiplier datapaths: the paper's
// bit-serial systolic array (behavioural `Mmmc` and its gate-level
// netlist), the dual-channel interleaved array, the radix-2^alpha
// word-serial pipeline, the software engines on the word-level kernel
// (Algorithm 2's exact output, and word-level Montgomery with the CIOS
// parameter), the Algorithm-2 bit loop they are checked against, and the
// Blum–Paar comparison design.  Each used to
// expose a bespoke constructor/Multiply/stats shape, so every caller
// (exponentiator, service, crypto, benches) hard-coded one backend.
//
// `MmmEngine` is the one API they all satisfy:
//
//   * Multiply()   — the Montgomery product x*y*R^-1 in the engine's own
//                    chainable window, with per-multiply cycle accounting
//                    (measured clock-by-clock for the cycle-accurate
//                    engines, charged per the validated formula otherwise);
//   * ToMont() / FromMont() / Reduce() — domain entry/exit and canonical
//                    reduction, built on Multiply via MontFactor();
//   * ModExp()     — generic left-to-right square-and-multiply (§4.5,
//                    Algorithm 3) over Multiply, with normalized
//                    `EngineStats`;
//   * Caps()       — capability flags: dual-field GF(2^m) support,
//                    dual-modulus pairing, batch lanes, cycle accuracy.
//
// `EngineRegistry` maps string names to factories, so a workload selects
// its datapath by configuration ("mmmc", "interleaved", "high-radix",
// "word-mont", "blum-paar", "netlist-sim", "bit-serial", "alg2-ref") and every
// datapath becomes a drop-in, benchmarkable scenario.  The registered
// backends are asserted bit-identical on a shared operand sweep in
// tests/test_engine.cpp.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bignum/biguint.hpp"

namespace mont::bignum {
class MontKernel;
}  // namespace mont::bignum

namespace mont::core {

/// Arithmetic field a backend operates in.  kGfP is the paper's integer
/// mode; kGf2 is the Savaş-style dual-field extension where the modulus is
/// the field polynomial f(x) and additions are carry-less.
enum class EngineField : std::uint8_t { kGfP, kGf2 };

const char* EngineFieldName(EngineField field);

/// Static capability advertisement of a backend.
struct EngineCaps {
  /// Supports GF(2^m) operation (EngineOptions::field = kGf2).
  bool gf2 = false;
  /// One physical array can serve two *different* equal-length moduli,
  /// one per channel (the dual-modulus interleaved datapath).
  bool dual_modulus = false;
  /// The backend models the paper's bit-serial array schedule, so two of
  /// its MMM streams can be co-scheduled onto the two channels of the
  /// C-slow (interleaved) variant of its datapath — the basis of the
  /// 3l+5-per-pair accounting.  Word-serial datapaths have no such idle
  /// parity and cannot claim the pairing credit.
  bool pairable_streams = false;
  /// Independent operand pairs MultiplyBatch() evaluates per pass.
  std::size_t batch_lanes = 1;
  /// Cycle counts are measured clock edge by clock edge rather than
  /// charged from the validated closed form.
  bool cycle_accurate = false;
};

/// Normalized per-workload accounting, shared by every backend and every
/// caller (exponentiator, paired exponentiation, service jobs).  Subsumes
/// the former ExponentiationStats and PairedExpStats.
struct EngineStats {
  std::uint64_t squarings = 0;
  std::uint64_t multiplications = 0;  ///< conditional multiplies (set bits)
  std::uint64_t mmm_invocations = 0;  ///< includes domain entry/exit
  /// Issue accounting when the workload ran under the dual-channel
  /// scheduler: paired issues carry two MMMs in 3l+5 cycles, single
  /// issues one MMM at the engine's per-multiply cost.
  std::uint64_t paired_issues = 0;
  std::uint64_t single_issues = 0;
  /// Engine occupancy: the sum of per-multiply cycle counts (measured for
  /// cycle-accurate engines, modelled otherwise), or the paired-issue
  /// charge paired*(3l+5) + single*(3l+4) under the scheduler.
  std::uint64_t engine_cycles = 0;
  /// The paper's §4.5 closed-form accounting for the same operation mix.
  std::uint64_t paper_model_cycles = 0;
  /// Jobs cancelled before engine dispatch (deadline expiry); such a job
  /// performed no MMM work, so every other field stays zero for it.
  std::uint64_t cancelled = 0;

  EngineStats& operator+=(const EngineStats& other);
};

/// Construction-time options for MakeEngine.
struct EngineOptions {
  EngineField field = EngineField::kGfP;
  /// Digit width for the "high-radix" backend (1..32).
  std::size_t alpha = 8;
};

/// Polymorphic modular-multiplication backend.  All methods are const and
/// safe to call concurrently: backends wrapping mutable hardware models
/// (mmmc, interleaved, netlist-sim) serialise internally — one array, one
/// multiplication in flight — while the software backends are lock-free.
class MmmEngine {
 public:
  virtual ~MmmEngine() = default;

  virtual std::string_view Name() const = 0;
  virtual EngineCaps Caps() const = 0;

  EngineField Field() const { return field_; }
  /// Operand bit length: the modulus bit length l for GF(p), the field
  /// degree m = deg(f) for GF(2^m).
  std::size_t l() const { return l_; }
  /// The modulus N (GF(p)) or field polynomial f(x) (GF(2^m)).
  const bignum::BigUInt& Modulus() const { return modulus_; }
  /// Exclusive operand bound of Multiply(): 2N for the no-final-subtraction
  /// designs (Walter's window), N for the word-level software backend,
  /// 2^(l+1) (degree <= l) for GF(2^m).
  const bignum::BigUInt& OperandBound() const { return operand_bound_; }

  /// Montgomery product x*y*R^-1 for the engine's own R, result inside
  /// OperandBound() (chainable).  Adds this multiplication's cycle count
  /// to *cycles when non-null.  Throws std::invalid_argument for operands
  /// outside the window.
  virtual bignum::BigUInt Multiply(const bignum::BigUInt& x,
                                   const bignum::BigUInt& y,
                                   std::uint64_t* cycles = nullptr) const = 0;

  /// The domain-entry operand: ToMont(x) == Multiply(x, MontFactor()),
  /// i.e. R^2 reduced by the modulus.
  virtual const bignum::BigUInt& MontFactor() const = 0;

  /// The word-level kernel whose REDC product Multiply returns, for
  /// callers that keep operands in limbs or lanes (PairedModExp's IFMA
  /// path); nullptr for every backend whose products come from elsewhere.
  virtual const bignum::MontKernel* Kernel() const { return nullptr; }

  /// Per-multiplication cycle model (what Multiply charges when it cannot
  /// measure): 3l+4 for the paper's array, 3l+6 for Blum–Paar, the
  /// word-serial schedule for high-radix, word-MAC counts for word-mont.
  virtual std::uint64_t MultiplyCyclesModel() const = 0;

  /// Evaluates up to Caps().batch_lanes independent products per pass;
  /// the default runs them sequentially.  Sizes must match.
  virtual std::vector<bignum::BigUInt> MultiplyBatch(
      std::span<const bignum::BigUInt> xs, std::span<const bignum::BigUInt> ys,
      std::uint64_t* cycles = nullptr) const;

  /// Domain entry: x -> x*R (mod N), inside the operand window.
  bignum::BigUInt ToMont(const bignum::BigUInt& x,
                         std::uint64_t* cycles = nullptr) const;
  /// Domain exit, fully reduced: x -> x*R^-1 mod N (or mod f).
  bignum::BigUInt FromMont(const bignum::BigUInt& x,
                           std::uint64_t* cycles = nullptr) const;
  /// Canonical reduction: v mod N for GF(p), v(x) mod f(x) for GF(2^m).
  bignum::BigUInt Reduce(bignum::BigUInt v) const;

  /// base^exponent fully reduced, via left-to-right square-and-multiply
  /// with Montgomery pre-/post-processing exactly as in §4.5 — the same
  /// flow for every backend and both fields (for GF(2^m) this is field
  /// exponentiation, e.g. Fermat inversion a^(2^m-2)).
  bignum::BigUInt ModExp(const bignum::BigUInt& base,
                         const bignum::BigUInt& exponent,
                         EngineStats* stats = nullptr) const;

 protected:
  MmmEngine(bignum::BigUInt modulus, EngineField field,
            std::size_t operand_length, bignum::BigUInt operand_bound)
      : modulus_(std::move(modulus)),
        field_(field),
        l_(operand_length),
        operand_bound_(std::move(operand_bound)) {}

 private:
  bignum::BigUInt modulus_;
  EngineField field_;
  std::size_t l_;
  bignum::BigUInt operand_bound_;
};

/// String-keyed backend factory.  The built-in backends are registered on
/// first use; further backends can be registered at runtime (the name must
/// be unique).  All methods are thread-safe.
class EngineRegistry {
 public:
  using Factory = std::function<std::unique_ptr<MmmEngine>(
      bignum::BigUInt modulus, const EngineOptions& options)>;

  struct Entry {
    std::string description;  ///< one line, for listings and error texts
    EngineCaps caps;          ///< static capability advertisement
    Factory factory;
  };

  /// The process-wide registry, pre-populated with the built-in backends.
  static EngineRegistry& Global();

  /// Registers a backend; throws std::invalid_argument on a duplicate name.
  void Register(std::string name, Entry entry);

  /// Constructs the named backend over `modulus`.  Throws
  /// std::invalid_argument for an unknown name (the message lists the
  /// registered names) or a capability mismatch (e.g. options.field =
  /// kGf2 on a GF(p)-only backend).
  std::unique_ptr<MmmEngine> Make(std::string_view name,
                                  bignum::BigUInt modulus,
                                  const EngineOptions& options = {}) const;

  /// Capability entry for `name`, or nullptr if unregistered.  The
  /// pointer stays valid for the process lifetime (entries are never
  /// removed and the storage is node-stable).
  const Entry* Find(std::string_view name) const;

  /// Registered names, sorted.
  std::vector<std::string> Names() const;

 private:
  EngineRegistry();

  mutable std::mutex mu_;
  std::list<std::pair<std::string, Entry>> entries_;
};

/// Shorthand for EngineRegistry::Global().Make(...).
std::unique_ptr<MmmEngine> MakeEngine(std::string_view name,
                                      bignum::BigUInt modulus,
                                      const EngineOptions& options = {});

/// The per-field modulus rules every backend enforces — GF(p): odd > 1;
/// GF(2^m): deg(f) >= 2 and f(0) = 1.  Throws std::invalid_argument with
/// `who` as the message prefix.  Exposed so front doors (e.g. the
/// exponentiation service's Submit) validate with the same predicate the
/// registry factories apply, instead of drifting copies.
void ValidateEngineModulus(const bignum::BigUInt& modulus, EngineField field,
                           const char* who);

}  // namespace mont::core
