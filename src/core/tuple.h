#pragma once

// Fixed-arity integer tuples — the element type of Datalog relations (§2).
// Relations in this reproduction are sets of Tuple<Arity>; the evaluator and
// all benchmarks use Tuple<2> ("2D points", the paper's most relevant case)
// but the type is generic in arity.

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <ostream>
#include <type_traits>

namespace dtree {

/// Domain of Datalog values. Soufflé uses 32-bit RAM domains; the paper's
/// micro-benchmarks use size_t 2D points. 64 bits covers both and keeps
/// per-element atomic_ref accesses lock-free on every relevant platform.
using RamDomain = std::uint64_t;

template <std::size_t Arity, typename T = RamDomain>
struct Tuple {
    using value_type = T;

    std::array<T, Arity> values{};

    Tuple() = default;

    /// Construct from up to Arity values, zero-padding the rest:
    /// Tuple<2>{a, b}, or Tuple<4>{a, b} for padded storage tuples.
    template <typename... Args>
        requires(sizeof...(Args) <= Arity && sizeof...(Args) > 0 &&
                 (std::is_convertible_v<Args, T> && ...))
    constexpr Tuple(Args... args) : values{static_cast<T>(args)...} {}

    static constexpr std::size_t static_size() { return Arity; }
    static constexpr std::size_t arity() { return Arity; }

    T* data() { return values.data(); }
    const T* data() const { return values.data(); }

    T& operator[](std::size_t i) { return values[i]; }
    const T& operator[](std::size_t i) const { return values[i]; }

    friend constexpr bool operator==(const Tuple& a, const Tuple& b) {
        return a.values == b.values;
    }

    /// Lexicographic order — the total order all indexes rely on (§2).
    friend constexpr auto operator<=>(const Tuple& a, const Tuple& b) {
        return a.values <=> b.values;
    }

    friend std::ostream& operator<<(std::ostream& os, const Tuple& t) {
        os << '(';
        for (std::size_t i = 0; i < Arity; ++i) {
            if (i) os << ',';
            os << t.values[i];
        }
        return os << ')';
    }
};

/// Smallest tuple with the given first component: used to build range-query
/// bounds like lower_bound({x, 0}) in the transitive-closure example.
template <std::size_t Arity, typename T = RamDomain>
constexpr Tuple<Arity, T> prefix_low(T first) {
    Tuple<Arity, T> t;
    t[0] = first;
    return t;
}

/// Largest tuple with the given first component.
template <std::size_t Arity, typename T = RamDomain>
constexpr Tuple<Arity, T> prefix_high(T first) {
    Tuple<Arity, T> t;
    t[0] = first;
    for (std::size_t i = 1; i < Arity; ++i) t[i] = std::numeric_limits<T>::max();
    return t;
}

// ---------------------------------------------------------------------------
// Key fingerprints (the one-byte membership filter of the leaf layout v2,
// DESIGN.md §15)
// ---------------------------------------------------------------------------

namespace fp_detail {
/// Fibonacci-hashing multiplier (2^64 / phi): one multiply diffuses every
/// input bit into the top byte, which is all the fingerprint keeps.
inline constexpr std::uint64_t kFpMix = 0x9E3779B97F4A7C15ull;
} // namespace fp_detail

/// One-byte fingerprint of a key, stored per leaf slot by the v2 leaf layout
/// so membership probes reject non-matching slots with a single SIMD byte
/// compare instead of a key comparison. Requirements: deterministic, a pure
/// function of the key VALUE (equal keys must collide — the probe relies on
/// it), and well-spread in its low-entropy inputs (dense integer domains,
/// grid tuples). Collisions are benign: a matching byte only nominates the
/// slot for full key verification (fp_false_hits counts those).
template <typename T>
    requires(std::is_arithmetic_v<T>)
constexpr std::uint8_t key_fingerprint(T k) {
    return static_cast<std::uint8_t>(
        (static_cast<std::uint64_t>(k) * fp_detail::kFpMix) >> 56);
}

/// Tuples hash ALL elements (FNV-1a combine, then one mixing multiply so the
/// top byte depends on every element): Datalog relations are dominated by
/// tuples sharing their leading columns, where a first-column-only byte
/// would collide across whole leaves.
template <std::size_t Arity, typename T>
constexpr std::uint8_t key_fingerprint(const Tuple<Arity, T>& t) {
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t i = 0; i < Arity; ++i) {
        h ^= static_cast<std::uint64_t>(t[i]);
        h *= 1099511628211ull;
    }
    return static_cast<std::uint8_t>((h * fp_detail::kFpMix) >> 56);
}

} // namespace dtree

namespace std {

/// Hash support so tuples drop into unordered_set / the concurrent hash set
/// baselines unchanged (FNV-1a over the elements).
template <size_t Arity, typename T>
struct hash<dtree::Tuple<Arity, T>> {
    size_t operator()(const dtree::Tuple<Arity, T>& t) const noexcept {
        size_t h = 1469598103934665603ull;
        for (size_t i = 0; i < Arity; ++i) {
            h ^= static_cast<size_t>(t[i]);
            h *= 1099511628211ull;
        }
        return h;
    }
};

} // namespace std
