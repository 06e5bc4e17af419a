#pragma once

// Three-way comparators (paper §3, implementation note 2).
//
// In-node search compares a probe key against many stored keys; a classic
// `operator<` forces two comparisons per element to distinguish <, ==, >.
// A custom 3-way comparator answers with one pass over the tuple, which is
// one of the tuning optimisations the paper credits for the tree's
// sequential performance. The ablation_search bench quantifies it.

#include <compare>
#include <cstddef>
#include <functional>
#include <type_traits>

#include "core/tuple.h"

namespace dtree {

/// Default 3-way comparator: -1 / 0 / +1 like memcmp. Works for any type
/// with operator< (generic fallback) and is specialised for Tuple to do a
/// single element-wise pass.
template <typename T>
struct ThreeWayComparator {
    int operator()(const T& a, const T& b) const {
        if (a < b) return -1;
        if (b < a) return 1;
        return 0;
    }

    bool less(const T& a, const T& b) const { return (*this)(a, b) < 0; }
    bool equal(const T& a, const T& b) const { return (*this)(a, b) == 0; }
};

template <std::size_t Arity, typename T>
struct ThreeWayComparator<Tuple<Arity, T>> {
    /// Element i decides only when elements [0, i) tie, compared with `<`:
    /// racy readers may load one element at a time and stop at the first
    /// difference (ConcurrentAccess::compare, core/race_access.h).
    static constexpr bool lexicographic = true;

    int operator()(const Tuple<Arity, T>& a, const Tuple<Arity, T>& b) const {
        for (std::size_t i = 0; i < Arity; ++i) {
            if (a[i] < b[i]) return -1;
            if (a[i] > b[i]) return 1;
        }
        return 0;
    }

    bool less(const Tuple<Arity, T>& a, const Tuple<Arity, T>& b) const {
        return (*this)(a, b) < 0;
    }
    bool equal(const Tuple<Arity, T>& a, const Tuple<Arity, T>& b) const {
        return (*this)(a, b) == 0;
    }
};

/// Adapts an STL-style less<T> into the 3-way interface, for users who bring
/// their own ordering.
template <typename T, typename Less>
struct LessToThreeWay {
    Less less_fn;

    int operator()(const T& a, const T& b) const {
        if (less_fn(a, b)) return -1;
        if (less_fn(b, a)) return 1;
        return 0;
    }

    bool less(const T& a, const T& b) const { return less_fn(a, b); }
    bool equal(const T& a, const T& b) const { return (*this)(a, b) == 0; }
};

} // namespace dtree
