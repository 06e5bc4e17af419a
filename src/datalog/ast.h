#pragma once

// Abstract syntax of the soufflette Datalog dialect — the substrate engine
// used to reproduce the paper's §4.3 end-to-end experiments.
//
// Surface syntax (a subset of Soufflé's):
//
//   .decl edge(x:number, y:number)
//   .decl path(x:number, y:number) output
//   edge(1,2).                              // fact
//   path(x,y) :- edge(x,y).                 // rule
//   path(x,z) :- path(x,y), edge(y,z).      // recursion
//   alive(x)  :- node(x), !dead(x).         // stratified negation
//
// Values are unsigned integers (RamDomain); relations have arity 1..4.

#include <cstdint>
#include <string>
#include <vector>

#include "core/tuple.h"

namespace dtree::datalog {

/// Engine-wide maximum relation arity.
constexpr std::size_t kMaxArity = 4;

/// A tuple as the engine, fact I/O and the wire protocol pass it around:
/// zero-padded to kMaxArity. Relations store Tuple<arity> keys and convert
/// at their boundary (relation.h).
using StorageTuple = Tuple<kMaxArity>;

using Value = RamDomain;

/// One argument of an atom: a variable (by name), a numeric constant, or a
/// symbol (string) constant resolved to a Value at engine-build time.
/// The unnamed wildcard `_` becomes a fresh variable per occurrence.
struct Argument {
    enum class Kind { Variable, Constant, Symbol } kind;
    std::string var;    // Kind::Variable name / Kind::Symbol text
    Value constant = 0; // Kind::Constant

    static Argument variable(std::string name) {
        return {Kind::Variable, std::move(name), 0};
    }
    static Argument number(Value v) { return {Kind::Constant, {}, v}; }
    static Argument symbol(std::string text) {
        return {Kind::Symbol, std::move(text), 0};
    }

    bool is_variable() const { return kind == Kind::Variable; }
    bool is_symbol() const { return kind == Kind::Symbol; }
};

/// A (possibly negated) predicate application.
struct Atom {
    std::string relation;
    std::vector<Argument> args;
    bool negated = false;
};

/// A comparison constraint in a rule body, e.g. `x < y`, `f != 3`.
/// Both sides must be bound by positive atoms (checked in semantics.h).
struct Constraint {
    enum class Op { Lt, Le, Gt, Ge, Eq, Ne } op;
    Argument lhs, rhs;

    static bool eval(Op op, Value a, Value b) {
        switch (op) {
            case Op::Lt: return a < b;
            case Op::Le: return a <= b;
            case Op::Gt: return a > b;
            case Op::Ge: return a >= b;
            case Op::Eq: return a == b;
            case Op::Ne: return a != b;
        }
        return false;
    }
};

/// head :- body, constraints. A rule with an empty body is a fact (head args
/// must all be constants then).
struct Rule {
    Atom head;
    std::vector<Atom> body;
    std::vector<Constraint> constraints;

    bool is_fact() const { return body.empty() && constraints.empty(); }
};

/// Attribute types: plain numbers or interned symbols (strings). Evaluation
/// is type-agnostic (everything is a Value); types matter at the boundary
/// (literals, fact files, output) and for semantic checking.
enum class AttrType { Number, Symbol };

/// A relation declaration: `.decl name(a:number, b:symbol) [input] [output]`.
struct RelationDecl {
    std::string name;
    std::vector<std::string> attribute_names;
    std::vector<AttrType> attribute_types; // parallel to attribute_names
    bool is_input = false;
    bool is_output = false;

    std::size_t arity() const { return attribute_names.size(); }
};

/// A full parsed program: declarations, facts and rules in source order.
struct Program {
    std::vector<RelationDecl> declarations;
    std::vector<Rule> rules; // facts included (empty body)

    const RelationDecl* find_decl(const std::string& name) const {
        for (const auto& d : declarations) {
            if (d.name == name) return &d;
        }
        return nullptr;
    }
};

} // namespace dtree::datalog
