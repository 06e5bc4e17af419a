#pragma once

// The soufflette evaluation engine: parallel semi-naïve bottom-up Datalog
// evaluation (paper §2), templated on the relation storage adapter so the
// paper's Fig. 5 comparison — same engine, different data structure — is one
// template instantiation per contestant.
//
// Evaluation pipeline per stratum (strata in dependency order):
//   1. rules with no same-stratum body atom run once;
//   2. delta := everything derived so far for the stratum's relations;
//   3. fixpoint loop: for every recursive rule and every same-stratum
//      positive body atom occurrence k, run the rule with occurrence k
//      reading DELTA and the others reading FULL; freshly derived tuples
//      (not in FULL) go to NEW;
//   4. merge NEW into FULL (and all its indexes), DELTA := NEW; repeat
//      until no NEW tuples.
//
// Parallelism (the paper's model): within one rule evaluation the matches of
// the FIRST body atom are materialised and fanned out over the persistent
// worker pool (runtime/scheduler.h) in grain-sized chunks, so skewed join
// fanout rebalances by work stealing; each worker joins the remaining atoms
// with its own LocalView per relation — which is exactly where per-thread
// operation hints live. Views are cached per worker per relation
// (datalog/view_cache.h), so hints persist across chunks, rules, and
// fixpoint iterations, like Soufflé's long-lived OpenMP threads. Writes go
// to NEW relations only and reads to FULL/DELTA only: the two-phase
// discipline that lets reads run unsynchronised. Rule fanout uses
// Scheduler::kDefaultGrain-sized chunks; work that fits one grain runs
// inline on the caller.
//
// Incremental ingestion (DESIGN.md §12): after run(), ingest() buffers new
// fact batches (filtered to genuinely-new tuples) and refixpoint() group-
// commits them — packed-build each batch into a delta relation, bulk-merge
// it into FULL, then re-run semi-naïve evaluation seeded ONLY from those
// deltas: per stratum, one delta-variant per (rule, positive body atom with
// a pending delta), then the ordinary DELTA/NEW rotation until quiescence,
// with every NEW accumulated so downstream strata see upstream growth as
// their own incoming delta. Ingestion into a relation whose positive
// derivation closure is read under negation is rejected up front: the
// storage is insert-only, so derivations invalidated by a growing negated
// relation could never be retracted.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/metrics.h"
#include "util/timer.h"

#include "datalog/ast.h"
#include "datalog/index_selection.h"
#include "datalog/relation.h"
#include "datalog/semantics.h"
#include "datalog/symbol_table.h"
#include "datalog/view_cache.h"
#include "runtime/scheduler.h"

namespace dtree::datalog {

/// Aggregate run statistics (Table 2).
struct EngineStats {
    std::size_t relations = 0;
    std::size_t rules = 0;
    OpCounters ops;
    HintStats hints;
    std::uint64_t input_tuples = 0;
    std::uint64_t produced_tuples = 0;
    std::uint64_t iterations = 0; ///< total fixpoint iterations across strata
    // Incremental ingestion (DESIGN.md §12); zero for batch-only runs.
    std::uint64_t ingest_batches = 0;  ///< ingest() calls accepted
    std::uint64_t ingest_tuples = 0;   ///< genuinely-new tuples buffered
    std::uint64_t refixpoint_iterations = 0; ///< iterations run by refixpoint()
    // Epoch/snapshot layer (DESIGN.md §11); all-zero for non-snapshot storage.
    std::uint64_t epoch = 0;          ///< max tree epoch across relations
    std::uint64_t epoch_advances = 0; ///< delta rotations + the final publish
    std::uint64_t snapshot_pins = 0;
    std::uint64_t snapshot_cow_images = 0;
    std::uint64_t snapshot_retained_bytes = 0; ///< live (unreclaimed) image bytes
    std::uint64_t snapshot_cow_bytes = 0;      ///< cumulative image bytes

    /// One flat object — the `stats` section of soufflette --profile=FILE.
    void write_json(json::Writer& w) const {
        w.begin_object();
        w.kv("relations", relations);
        w.kv("rules", rules);
        w.kv("inserts", ops.inserts);
        w.kv("membership_tests", ops.membership_tests);
        w.kv("lower_bound_calls", ops.lower_bound_calls);
        w.kv("upper_bound_calls", ops.upper_bound_calls);
        w.kv("input_tuples", input_tuples);
        w.kv("produced_tuples", produced_tuples);
        w.kv("fixpoint_iterations", iterations);
        w.kv("ingest_batches", ingest_batches);
        w.kv("ingest_tuples", ingest_tuples);
        w.kv("refixpoint_iterations", refixpoint_iterations);
        w.key("snapshots");
        w.begin_object();
        w.kv("epoch", epoch);
        w.kv("epoch_advances", epoch_advances);
        w.kv("snapshot_pins", snapshot_pins);
        w.kv("snapshot_cow_images", snapshot_cow_images);
        w.kv("snapshot_retained_bytes", snapshot_retained_bytes);
        w.kv("snapshot_cow_bytes", snapshot_cow_bytes);
        w.end_object();
        w.key("hints");
        hints.write_json(w);
        w.end_object();
    }
};

/// Per-rule profile (Soufflé-profiler style): where did the fixpoint spend
/// its time? Evaluations counts every (iteration x delta-variant) run.
struct RuleProfile {
    std::string head;        ///< head relation name
    std::size_t rule_index;  ///< index into the program's rules
    bool recursive = false;
    std::uint64_t evaluations = 0;
    std::uint64_t tuples = 0; ///< genuinely new head tuples this rule derived
    double seconds = 0;

    void write_json(json::Writer& w) const {
        w.begin_object();
        w.kv("head", head);
        w.kv("rule_index", rule_index);
        w.kv("recursive", recursive);
        w.kv("evaluations", evaluations);
        w.kv("tuples", tuples);
        w.kv("seconds", seconds);
        w.end_object();
    }
};

template <typename Storage>
class Engine {
public:
    using RelationT = Relation<Storage>;

    explicit Engine(AnalyzedProgram prog) : prog_(std::move(prog)) {
        // Intern every string literal, turning Symbol arguments into plain
        // Constants: evaluation never sees strings.
        for (Rule& rule : prog_.program.rules) {
            auto resolve_arg = [this](Argument& arg) {
                if (!arg.is_symbol()) return;
                arg = Argument::number(symbols_.intern(arg.var));
            };
            for (Argument& a : rule.head.args) resolve_arg(a);
            for (Atom& atom : rule.body) {
                for (Argument& a : atom.args) resolve_arg(a);
            }
            for (Constraint& c : rule.constraints) {
                resolve_arg(c.lhs);
                resolve_arg(c.rhs);
            }
        }
        indexes_ = select_indexes(prog_);
        for (std::size_t r = 0; r < prog_.decls.size(); ++r) {
            const auto& d = prog_.decls[r];
            relations_.push_back(std::make_unique<RelationT>(
                d.name, static_cast<unsigned>(d.arity()), indexes_.relation_indexes[r]));
        }
        for (std::size_t i = 0; i < prog_.program.rules.size(); ++i) {
            compiled_.push_back(compile_rule(prog_, i));
            if (compiled_.back().num_vars > 32) {
                throw std::runtime_error("rule uses more than 32 variables");
            }
        }
        profile_.resize(prog_.program.rules.size());
        // Load inline facts.
        for (std::size_t i = 0; i < prog_.program.rules.size(); ++i) {
            const Rule& rule = prog_.program.rules[i];
            if (!rule.is_fact()) continue;
            StorageTuple t{};
            for (std::size_t c = 0; c < rule.head.args.size(); ++c) {
                t[c] = rule.head.args[c].constant;
            }
            relations_[prog_.relation_id(rule.head.relation)]->insert(t);
        }
    }

    /// Bulk fact loading (workload generators). Tuples are padded source-
    /// order column values. Only genuinely new tuples count as input —
    /// duplicate facts would otherwise inflate input_tuples_ and skew
    /// produced_tuples in EngineStats.
    void add_facts(const std::string& relation, const std::vector<StorageTuple>& facts) {
        RelationT& rel = *relations_.at(prog_.relation_id(relation));
        auto view = rel.local_view(0);
        for (const auto& t : facts) {
            if (view.insert(t)) ++input_tuples_;
        }
    }

    void add_fact(const std::string& relation, const StorageTuple& t) {
        if (relations_.at(prog_.relation_id(relation))->insert(t)) {
            ++input_tuples_;
        }
    }

    /// Chunk grain for rule fanout; 0 restores Scheduler::kDefaultGrain.
    /// Work that fits one grain runs inline. A test seam: the determinism
    /// suite lowers it so small inputs still split into many chunks.
    void set_grain(std::size_t g) {
        grain_ = g ? g : runtime::Scheduler::kDefaultGrain;
    }
    std::size_t grain() const { return grain_; }

    /// Runs the program to fixpoint with the given number of threads.
    void run(unsigned threads) {
        if (threads == 0) throw std::invalid_argument("threads must be >= 1");
        threads_ = threads;
        // All pool threads come up here; regions never spawn again
        // (acceptance: SchedulerStats::threads_spawned stays flat).
        runtime::Scheduler::instance().reserve(threads);
        views_.reset(threads);
        for (const Stratum& stratum : prog_.strata) evaluate_stratum(stratum);
        // Publish the final state to snapshots pinned after the run (rules
        // writing straight to FULL — non-recursive strata — would otherwise
        // stay invisible until some later rotation).
        if constexpr (RelationT::snapshot_capable) {
            for (auto& rel : relations_) rel->advance_epoch();
        }
        // Retire cached views: flushes their op counters and hint stats into
        // the relations so stats() sees the whole run.
        views_.clear();
    }

    // -- incremental ingestion (DESIGN.md §12) -------------------------------

    /// Whether ingest() would accept facts for `relation`: it must be
    /// declared and its positive derivation closure must stay clear of
    /// negation (see ingest_safe()). Lets the serve layer pre-validate every
    /// relation of a group-commit request BEFORE staging any of it, so a
    /// rejected request stages nothing instead of half of its relations.
    bool ingest_allowed(const std::string& relation) const {
        const auto it = prog_.decl_index.find(relation);
        return it != prog_.decl_index.end() && ingest_safe(it->second);
    }

    /// Buffers a batch of new facts for `relation`. Tuples already in FULL or
    /// already pending are dropped so the pending batch stays disjoint from
    /// FULL — the precondition of the bulk-merge fastpath refixpoint() rides.
    /// Returns the number of genuinely-new tuples buffered; they take effect
    /// at the next refixpoint() (group commit). Throws for unknown relations
    /// and for relations whose positive derivation closure is read under
    /// negation (insert-only storage cannot retract, see ingest_safe()).
    std::size_t ingest(const std::string& relation,
                       const std::vector<StorageTuple>& facts) {
        if (!prog_.decl_index.count(relation)) {
            throw std::runtime_error("ingest: unknown relation: " + relation);
        }
        const std::size_t rel = prog_.relation_id(relation);
        if (!ingest_safe(rel)) {
            throw std::runtime_error(
                "ingest: relation '" + relation +
                "' (or one derived from it) is read under negation; "
                "insert-only evaluation cannot retract derivations");
        }
        std::vector<StorageTuple> batch(facts);
        std::sort(batch.begin(), batch.end());
        batch.erase(std::unique(batch.begin(), batch.end()), batch.end());
        auto& pending = pending_[rel];
        std::vector<StorageTuple> fresh;
        {
            auto view = relations_[rel]->local_view(0);
            for (const auto& t : batch) {
                if (view.contains(t)) continue;
                if (std::binary_search(pending.begin(), pending.end(), t)) continue;
                fresh.push_back(t);
            }
        }
        const std::size_t n = fresh.size();
        if (n) {
            const auto mid = static_cast<std::ptrdiff_t>(pending.size());
            pending.insert(pending.end(), fresh.begin(), fresh.end());
            std::inplace_merge(pending.begin(), pending.begin() + mid, pending.end());
            input_tuples_ += n;
        }
        ++ingest_batches_;
        ingest_tuples_ += n;
        DTREE_METRIC_INC(datalog_ingest_batches);
        DTREE_METRIC_ADD(datalog_ingest_tuples, n);
        return n;
    }

    /// Group-commits everything ingest() buffered and re-runs semi-naïve
    /// evaluation seeded only from those deltas: each batch becomes a packed
    /// delta relation, is bulk-merged into FULL, and per stratum one delta-
    /// variant per (rule, positive atom with a pending delta) seeds the NEW
    /// set, after which the ordinary DELTA/NEW rotation converges the
    /// recursive strata. Every NEW is folded into the incoming-delta map so
    /// later strata see upstream growth incrementally. Returns the number of
    /// fixpoint iterations this commit ran (0 = nothing pending). Snapshots
    /// stay serveable throughout: every merge publishes an epoch boundary.
    std::uint64_t refixpoint(unsigned threads) {
        if (threads == 0) throw std::invalid_argument("threads must be >= 1");
        bool has_pending = false;
        for (const auto& [rel, batch] : pending_) {
            if (!batch.empty()) has_pending = true;
        }
        if (!has_pending) return 0;
        threads_ = threads;
        runtime::Scheduler::instance().reserve(threads);
        views_.reset(threads);
        const std::uint64_t before = refixpoint_iterations_;

        // Group commit: each pending batch becomes a packed scratch relation
        // (the incoming delta) and is bulk-merged into FULL — disjointness
        // holds because ingest() filtered against FULL and the engine is
        // quiescent between commits.
        std::map<std::size_t, std::unique_ptr<RelationT>> delta_in;
        for (auto& [rel, batch] : pending_) {
            if (batch.empty()) continue;
            auto scratch = make_scratch(rel);
            scratch->load_sorted_batch(batch);
            merge_into_full(rel, *scratch);
            if constexpr (RelationT::snapshot_capable) {
                relations_[rel]->advance_epoch();
            }
            delta_in[rel] = std::move(scratch);
        }
        pending_.clear();

        for (const Stratum& stratum : prog_.strata) {
            refixpoint_stratum(stratum, delta_in);
        }
        if constexpr (RelationT::snapshot_capable) {
            for (auto& rel : relations_) rel->advance_epoch();
        }
        // Scratch-tier views on the delta_in relations retire with the cache;
        // delta_in itself dies at scope exit, after them.
        views_.clear();
        return refixpoint_iterations_ - before;
    }

    const RelationT& relation(const std::string& name) const {
        return *relations_.at(prog_.relation_id(name));
    }

    /// All tuples of a relation, in index order (tests / output).
    std::vector<StorageTuple> tuples(const std::string& name) const {
        std::vector<StorageTuple> out;
        relation(name).for_each([&](const StorageTuple& t) { out.push_back(t); });
        return out;
    }

    EngineStats stats() const {
        EngineStats s;
        s.relations = relations_.size();
        std::size_t rule_count = 0;
        for (const auto& r : prog_.program.rules) {
            if (!r.is_fact()) ++rule_count;
        }
        s.rules = rule_count;
        std::uint64_t total = 0;
        for (const auto& rel : relations_) {
            s.ops += rel->counters();
            s.hints += rel->hint_stats();
            total += rel->size();
        }
        s.input_tuples = input_tuples_;
        s.produced_tuples = total >= input_tuples_ ? total - input_tuples_ : 0;
        s.iterations = iterations_;
        s.ingest_batches = ingest_batches_;
        s.ingest_tuples = ingest_tuples_;
        s.refixpoint_iterations = refixpoint_iterations_;
        if constexpr (RelationT::snapshot_capable) {
            for (const auto& rel : relations_) {
                const auto snap = rel->snap_stats();
                s.epoch = std::max(s.epoch, snap.epoch);
                s.epoch_advances += snap.advances;
                s.snapshot_pins += snap.pins;
                s.snapshot_cow_images += snap.cow_images;
                s.snapshot_retained_bytes += snap.retained_bytes;
                s.snapshot_cow_bytes += snap.cow_bytes;
            }
        }
        return s;
    }

    const AnalyzedProgram& analyzed() const { return prog_; }

    /// The engine's symbol table: interned string constants from the program
    /// text plus whatever fact loading added. Thread-safe.
    SymbolTable& symbols() { return symbols_; }
    const SymbolTable& symbols() const { return symbols_; }

    /// Per-rule time/evaluation profile, most expensive first. Filled during
    /// run(); empty before.
    std::vector<RuleProfile> profile() const {
        std::vector<RuleProfile> out;
        for (std::size_t i = 0; i < profile_.size(); ++i) {
            if (profile_[i].evaluations == 0) continue;
            RuleProfile p = profile_[i];
            p.head = prog_.program.rules[i].head.relation;
            p.rule_index = i;
            p.recursive = prog_.rule_recursive[i];
            out.push_back(p);
        }
        std::sort(out.begin(), out.end(),
                  [](const RuleProfile& a, const RuleProfile& b) {
                      return a.seconds > b.seconds;
                  });
        return out;
    }

private:
    /// Which container a same-stratum atom reads in a delta-rule variant.
    enum class Version { Full, Delta };

    void evaluate_stratum(const Stratum& stratum) {
        // Phase 1: non-recursive rules run once, straight into FULL.
        for (std::size_t rule_idx : stratum.rules) {
            if (prog_.program.rules[rule_idx].is_fact()) continue;
            if (!prog_.rule_recursive[rule_idx]) {
                evaluate_rule(rule_idx, /*delta_atom=*/-1, nullptr, nullptr);
            }
        }
        if (!stratum.recursive) return;

        // Phase 2: initialise delta with everything the stratum's relations
        // hold so far.
        std::map<std::size_t, std::unique_ptr<RelationT>> delta, fresh;
        for (std::size_t rel : stratum.relations) {
            delta[rel] = make_scratch(rel);
            fresh[rel] = make_scratch(rel);
            if constexpr (RelationT::bulk_mergeable) {
                // Delta := FULL as a packed O(n) build per index — the
                // delta-rotation fast path: no per-tuple probes, no hint
                // traffic, nodes filled to the packed grade.
                if (!relations_[rel]->empty()) {
                    for (unsigned idx = 0; idx < delta[rel]->index_count(); ++idx) {
                        delta[rel]->bulk_load_index_from(idx, *relations_[rel]);
                        DTREE_METRIC_INC(datalog_merge_fastpath);
                    }
                }
            } else {
                auto view = delta[rel]->local_view(0);
                relations_[rel]->for_each(
                    [&](const StorageTuple& t) { view.insert(t); });
            }
        }

        // Phases 3+4: the fixpoint loop (shared with refixpoint_stratum).
        fixpoint_loop(stratum, delta, fresh, nullptr);
        // The delta/fresh scratch relations die with this scope; no cached
        // view may outlive them.
        views_.invalidate_scratch();
    }

    /// The DELTA/NEW rotation loop: evaluate every recursive rule's delta
    /// variants, merge NEW into FULL, rotate NEW -> DELTA, repeat until no
    /// progress. When `accumulate` is non-null (refixpoint), every merged
    /// NEW is also folded into that map so later strata observe this
    /// stratum's growth as their own incoming delta, and iterations count
    /// toward the refixpoint totals.
    void fixpoint_loop(const Stratum& stratum,
                       std::map<std::size_t, std::unique_ptr<RelationT>>& delta,
                       std::map<std::size_t, std::unique_ptr<RelationT>>& fresh,
                       std::map<std::size_t, std::unique_ptr<RelationT>>* accumulate) {
        for (;;) {
            ++iterations_;
            DTREE_METRIC_INC(datalog_fixpoint_iterations);
            if (accumulate) {
                ++refixpoint_iterations_;
                DTREE_METRIC_INC(datalog_refixpoint_iterations);
            }
            bool any_delta = false;
            for (std::size_t rel : stratum.relations) {
                if (!delta[rel]->empty()) any_delta = true;
            }
            if (!any_delta) break;

            for (std::size_t rule_idx : stratum.rules) {
                if (!prog_.rule_recursive[rule_idx]) continue;
                const CompiledRule& cr = compiled_[rule_idx];
                // One variant per same-stratum positive atom occurrence.
                for (std::size_t k = 0; k < cr.body.size(); ++k) {
                    const CompiledAtom& atom = cr.body[k];
                    if (atom.negated) continue;
                    if (!delta.count(atom.relation)) continue;
                    evaluate_rule(rule_idx, static_cast<int>(k), &delta, &fresh);
                }
            }

            // Merge NEW into FULL, rotate NEW -> DELTA. Cached views on the
            // scratch relations must retire first: the rotation moves the
            // backing storages between wrappers, stranding any live view
            // (FULL-tier views survive — those relations never rotate).
            views_.invalidate_scratch();
            bool progress = false;
            for (std::size_t rel : stratum.relations) {
                RelationT& nw = *fresh[rel];
                if (!nw.empty()) {
                    progress = true;
                    merge_into_full(rel, nw);
                    if (accumulate) accumulate_delta(*accumulate, rel, nw);
                }
                delta[rel]->clear();
                delta[rel]->swap_contents(nw);
            }
            // The delta->full rotation IS the epoch boundary (§11):
            // everything merged into FULL above becomes visible to snapshots
            // pinned from here on, atomically per relation.
            if constexpr (RelationT::snapshot_capable) {
                if (progress) {
                    for (std::size_t rel : stratum.relations) {
                        relations_[rel]->advance_epoch();
                    }
                }
            }
            if (!progress) break;
        }
    }

    /// Incremental re-evaluation of one stratum after a group commit:
    /// `delta_in` maps relation -> tuples that entered FULL since the last
    /// quiescent state (the merged ingest batches plus everything earlier
    /// strata just derived). Runs a seed pass — one delta-variant per
    /// (rule, positive body atom with a pending delta); FULL already holds
    /// the batch, so variants with the delta at position k and FULL
    /// elsewhere cover every new tuple combination — then converges the
    /// recursive strata with the ordinary rotation loop.
    void refixpoint_stratum(const Stratum& stratum,
                            std::map<std::size_t, std::unique_ptr<RelationT>>& delta_in) {
        // Skip strata no pending delta can reach: nothing new to derive.
        bool touched = false;
        for (std::size_t rule_idx : stratum.rules) {
            if (prog_.program.rules[rule_idx].is_fact()) continue;
            for (const CompiledAtom& atom : compiled_[rule_idx].body) {
                if (!atom.negated && delta_in.count(atom.relation) &&
                    !delta_in.at(atom.relation)->empty()) {
                    touched = true;
                    break;
                }
            }
            if (touched) break;
        }
        if (!touched) return;

        std::map<std::size_t, std::unique_ptr<RelationT>> delta, fresh;
        for (std::size_t rel : stratum.relations) {
            delta[rel] = make_scratch(rel);
            fresh[rel] = make_scratch(rel);
        }

        // Seed pass (counts as one iteration): non-recursive rules included —
        // their head tuples must reach NEW (not FULL directly) so the
        // accumulated delta carries them to later strata.
        ++iterations_;
        ++refixpoint_iterations_;
        DTREE_METRIC_INC(datalog_fixpoint_iterations);
        DTREE_METRIC_INC(datalog_refixpoint_iterations);
        for (std::size_t rule_idx : stratum.rules) {
            if (prog_.program.rules[rule_idx].is_fact()) continue;
            const CompiledRule& cr = compiled_[rule_idx];
            for (std::size_t k = 0; k < cr.body.size(); ++k) {
                const CompiledAtom& atom = cr.body[k];
                if (atom.negated) continue;
                if (!delta_in.count(atom.relation) ||
                    delta_in.at(atom.relation)->empty()) {
                    continue;
                }
                evaluate_rule(rule_idx, static_cast<int>(k), &delta_in, &fresh);
            }
        }

        // Rotate the seeded NEW into DELTA (and into the accumulator for
        // downstream strata), then converge recursion as usual.
        views_.invalidate_scratch();
        bool progress = false;
        for (std::size_t rel : stratum.relations) {
            RelationT& nw = *fresh[rel];
            if (!nw.empty()) {
                progress = true;
                merge_into_full(rel, nw);
                accumulate_delta(delta_in, rel, nw);
            }
            delta[rel]->clear();
            delta[rel]->swap_contents(nw);
        }
        if constexpr (RelationT::snapshot_capable) {
            if (progress) {
                for (std::size_t rel : stratum.relations) {
                    relations_[rel]->advance_epoch();
                }
            }
        }
        if (stratum.recursive && progress) {
            fixpoint_loop(stratum, delta, fresh, &delta_in);
        }
        views_.invalidate_scratch();
    }

    /// Folds a merged NEW set into the cross-stratum accumulator so later
    /// strata see it as part of their incoming delta.
    void accumulate_delta(std::map<std::size_t, std::unique_ptr<RelationT>>& delta_in,
                          std::size_t rel, RelationT& nw) {
        auto& acc = delta_in[rel];
        if (!acc) acc = make_scratch(rel);
        auto view = acc->local_view(0);
        nw.for_each([&](const StorageTuple& t) { view.insert(t); });
    }

    /// Whether growing `rel` preserves correctness under insert-only
    /// storage: the closure of `rel` under positive body->head rule edges
    /// must not intersect the relations read under negation — growth there
    /// would invalidate already-materialised derivations that can never be
    /// retracted. Stratification puts negated relations in strictly earlier
    /// strata, so refixpoint never re-reads a negation whose operand grew.
    bool ingest_safe(std::size_t rel) const {
        std::vector<char> negated(relations_.size(), 0);
        std::vector<std::vector<std::size_t>> heads(relations_.size());
        for (std::size_t i = 0; i < compiled_.size(); ++i) {
            if (prog_.program.rules[i].is_fact()) continue;
            const CompiledRule& cr = compiled_[i];
            for (const CompiledAtom& atom : cr.body) {
                if (atom.negated) {
                    negated[atom.relation] = 1;
                } else {
                    heads[atom.relation].push_back(cr.head.relation);
                }
            }
        }
        std::vector<char> seen(relations_.size(), 0);
        std::vector<std::size_t> stack{rel};
        seen[rel] = 1;
        while (!stack.empty()) {
            const std::size_t r = stack.back();
            stack.pop_back();
            if (negated[r]) return false;
            for (std::size_t h : heads[r]) {
                if (!seen[h]) {
                    seen[h] = 1;
                    stack.push_back(h);
                }
            }
        }
        return true;
    }

    std::unique_ptr<RelationT> make_scratch(std::size_t rel) const {
        const auto& d = prog_.decls[rel];
        return std::make_unique<RelationT>(
            d.name + "@scratch", static_cast<unsigned>(d.arity()),
            indexes_.relation_indexes[rel]);
    }

    /// Pooled parallel merge of a NEW relation into FULL — the specialised
    /// merge of §3. Bulk-mergeable storage (the B-tree adapters) streams
    /// NEW's sorted indexes straight into FULL as sorted runs: no staging
    /// vector, one descent + lock upgrade per leaf segment, fanned out over
    /// the pool in ranges cut at FULL's own separator keys so workers merge
    /// into disjoint leaf ranges. An index FULL holds nothing in yet is
    /// rebuilt by the packed loader instead (first merge of a
    /// non-seeded recursive relation). Other storages keep the generic
    /// point-insert path.
    void merge_into_full(std::size_t rel, RelationT& nw) {
        DTREE_METRIC_TIMER(datalog_merge_ns);
        RelationT& full = *relations_[rel];
        if constexpr (RelationT::bulk_mergeable) {
            for (unsigned idx = 0; idx < full.index_count(); ++idx) {
                if (full.index_empty(idx)) {
                    full.bulk_load_index_from(idx, nw);
                    DTREE_METRIC_INC(datalog_merge_fastpath);
                    continue;
                }
                // NEW and FULL are disjoint (the engine filters against FULL
                // before NEW), so each index receives every tuple exactly
                // once and indexes can merge independently.
                const auto seps =
                    full.partition_keys(idx, threads_ > 1 ? threads_ * 4 : 1);
                const std::size_t parts = seps.size() + 1;
                runtime::Scheduler::instance().parallel_for(
                    parts, threads_, {.grain = 1},
                    [&](unsigned wid, std::size_t b, std::size_t e) {
                        auto& view = views_.get(wid, full, false);
                        for (std::size_t p = b; p < e; ++p) {
                            view.insert_sorted_run(
                                idx, nw, p == 0 ? nullptr : &seps[p - 1],
                                p + 1 < parts ? &seps[p] : nullptr);
                        }
                    });
            }
            return;
        } else {
            std::vector<StorageTuple> tuples;
            nw.for_each([&](const StorageTuple& t) { tuples.push_back(t); });
            runtime::Scheduler::instance().parallel_for(
                tuples.size(), threads_, {.grain = grain_},
                [&](unsigned wid, std::size_t b, std::size_t e) {
                    auto& view = views_.get(wid, full, false);
                    for (std::size_t i = b; i < e; ++i) view.insert(tuples[i]);
                });
        }
    }

    /// Evaluates one rule (or one delta-variant of it): delta_atom is the
    /// body position reading DELTA, or -1 for the non-recursive form.
    /// Derived head tuples that are not yet in the head's FULL relation are
    /// inserted into NEW (recursive) or directly into FULL (non-recursive).
    /// RAII profiling scope: accumulates wall time + evaluation count.
    struct ProfileScope {
        explicit ProfileScope(RuleProfile& profile) : p(profile) {}
        RuleProfile& p;
        /// New head tuples derived during this evaluation; worker threads
        /// accumulate privately and add here once, on exit.
        std::atomic<std::uint64_t> derived{0};
        util::Timer timer;
        ~ProfileScope() {
            p.seconds += timer.elapsed_s();
            ++p.evaluations;
            const std::uint64_t n = derived.load(std::memory_order_relaxed);
            p.tuples += n;
            DTREE_METRIC_ADD(datalog_tuples_derived, n);
        }
    };

    void evaluate_rule(std::size_t rule_idx, int delta_atom,
                       std::map<std::size_t, std::unique_ptr<RelationT>>* delta,
                       std::map<std::size_t, std::unique_ptr<RelationT>>* fresh) {
        DTREE_METRIC_TIMER(datalog_rule_eval_ns);
        ProfileScope profile_scope(profile_[rule_idx]);
        const CompiledRule& cr = compiled_[rule_idx];
        const std::size_t head_rel = cr.head.relation;

        // Constant-only constraints gate the whole rule.
        static const std::array<Value, 32> kEmptyEnv{};
        if (!constraints_hold(cr, -1, kEmptyEnv)) return;

        // Constraint-only body (e.g. `a(1) :- 1 < 2.`): emit the (ground)
        // head once.
        if (cr.body.empty()) {
            auto& head_full = views_.get(0, *relations_[head_rel], false);
            StorageTuple t{};
            for (unsigned c = 0; c < cr.head.arity; ++c) t[c] = cr.head.cols[c].constant;
            if (head_full.insert(t)) {
                profile_scope.derived.fetch_add(1, std::memory_order_relaxed);
            }
            return;
        }

        // All-negated body (e.g. `a(1) :- !b(1).`): no outer atom to fan out
        // over; evaluate the chain of membership filters once, sequentially.
        if (cr.body[0].negated) {
            std::vector<typename RelationT::LocalView*> body_views;
            for (std::size_t a = 0; a < cr.body.size(); ++a) {
                body_views.push_back(&views_.get(
                    0, resolve(cr.body[a].relation, Version::Full, delta),
                    false));
            }
            auto& head_full = views_.get(0, *relations_[head_rel], false);
            RelationT* new_rel = fresh ? fresh->at(head_rel).get() : nullptr;
            typename RelationT::LocalView* head_new =
                new_rel ? &views_.get(0, *new_rel, true) : nullptr;
            std::array<Value, 32> env{};
            std::uint64_t derived = 0;
            join_from(rule_idx, cr, 0, env, body_views, head_full, head_new,
                      derived);
            profile_scope.derived.fetch_add(derived, std::memory_order_relaxed);
            return;
        }

        // Materialise the outer atom's candidate tuples (source order).
        std::vector<StorageTuple> outer;
        {
            const bool from_delta = delta_atom == 0;
            RelationT& rel0 =
                resolve(cr.body[0].relation,
                        from_delta ? Version::Delta : Version::Full, delta);
            auto& view = views_.get(0, rel0, from_delta);
            collect_atom_matches(rule_idx, 0, cr.body[0], view, outer);
        }
        if (outer.empty()) return;

        // Fan the outer matches out over the pool in grain-sized chunks —
        // the scheduler rebalances skewed fanout by stealing, and chunks
        // that fit one grain run inline. fn may run several times per
        // worker: per-worker views come from the cache, so hints stay warm
        // across chunks (and across whole evaluations).
        runtime::Scheduler::instance().parallel_for(
            outer.size(), threads_, {.grain = grain_},
            [&](unsigned wid, std::size_t b, std::size_t e) {
            // Per-worker views: reads on body relations, writes on head.
            std::vector<typename RelationT::LocalView*> body_views;
            body_views.reserve(cr.body.size());
            for (std::size_t a = 0; a < cr.body.size(); ++a) {
                const bool from_delta = static_cast<int>(a) == delta_atom;
                body_views.push_back(&views_.get(
                    wid,
                    resolve(cr.body[a].relation,
                            from_delta ? Version::Delta : Version::Full,
                            delta),
                    from_delta));
            }
            auto& head_full = views_.get(wid, *relations_[head_rel], false);
            RelationT* new_rel = fresh ? fresh->at(head_rel).get() : nullptr;
            typename RelationT::LocalView* head_new =
                new_rel ? &views_.get(wid, *new_rel, true) : nullptr;

            std::array<Value, 32> env{};
            std::uint64_t derived = 0;
            for (std::size_t i = b; i < e; ++i) {
                if (!bind_atom(cr.body[0], outer[i], env)) continue;
                if (!constraints_hold(cr, 0, env)) continue;
                join_from(rule_idx, cr, 1, env, body_views, head_full, head_new,
                          derived);
            }
            profile_scope.derived.fetch_add(derived, std::memory_order_relaxed);
        });
    }

    /// Resolves which physical relation an atom occurrence reads.
    RelationT& resolve(std::size_t rel, Version v,
                       std::map<std::size_t, std::unique_ptr<RelationT>>* delta) const {
        if (v == Version::Delta) return *delta->at(rel);
        return *relations_[rel];
    }

    /// Collects all tuples of atom 0 consistent with its constants (other
    /// columns are unconstrained at this point: leading atom, empty env).
    void collect_atom_matches(std::size_t rule_idx, std::size_t atom_idx,
                              const CompiledAtom& atom,
                              typename RelationT::LocalView& view,
                              std::vector<StorageTuple>& out) {
        const AtomPlan& plan = indexes_.plan(rule_idx, atom_idx);
        auto sink = [&](const StorageTuple& t) {
            // Constants / repeated variables are re-checked by bind_atom
            // later; collecting a superset here is always sound.
            out.push_back(t);
        };
        if constexpr (Storage::ordered) {
            if (!plan.full_scan && plan.bound_prefix < atom.arity) {
                StorageTuple bound{};
                const IndexOrder& order = indexes_.relation_indexes[atom.relation][plan.index];
                for (unsigned p = 0; p < plan.bound_prefix; ++p) {
                    const ColumnRef& col = atom.cols[order.order[p]];
                    bound[p] = col.constant; // leading atom: only constants can be bound
                }
                view.scan_prefix(plan.index, bound, plan.bound_prefix, sink);
                return;
            }
        }
        view.scan_all(sink);
    }

    /// Evaluates every constraint that became checkable at body stage
    /// `stage` (-1 = constants only, before any atom).
    static bool constraints_hold(const CompiledRule& cr, int stage,
                                 const std::array<Value, 32>& env) {
        for (const CompiledConstraint& c : cr.constraints) {
            if (c.ready_after != stage) continue;
            const Value a =
                c.lhs.kind == ColumnRef::Kind::Constant ? c.lhs.constant : env[c.lhs.var];
            const Value b =
                c.rhs.kind == ColumnRef::Kind::Constant ? c.rhs.constant : env[c.rhs.var];
            if (!Constraint::eval(c.op, a, b)) return false;
        }
        return true;
    }

    /// Matches `tuple` against the atom's columns, binding free variables.
    /// Returns false on constant / repeated-variable mismatch.
    static bool bind_atom(const CompiledAtom& atom, const StorageTuple& tuple,
                          std::array<Value, 32>& env) {
        for (unsigned c = 0; c < atom.arity; ++c) {
            const ColumnRef& col = atom.cols[c];
            switch (col.kind) {
                case ColumnRef::Kind::Constant:
                    if (tuple[c] != col.constant) return false;
                    break;
                case ColumnRef::Kind::Free:
                    env[col.var] = tuple[c];
                    break;
                case ColumnRef::Kind::Bound:
                    if (tuple[c] != env[col.var]) return false;
                    break;
            }
        }
        return true;
    }

    /// Nested-loop join over body atoms [atom_idx..), emitting head tuples.
    /// body_views holds one cached view pointer per atom occurrence (two
    /// atoms on the same relation share a view; scans are reentrant —
    /// iteration state lives in the scan, only hints live in the view).
    void join_from(std::size_t rule_idx, const CompiledRule& cr, std::size_t atom_idx,
                   std::array<Value, 32>& env,
                   std::vector<typename RelationT::LocalView*>& body_views,
                   typename RelationT::LocalView& head_full,
                   typename RelationT::LocalView* head_new, std::uint64_t& derived) {
        if (atom_idx == cr.body.size()) {
            StorageTuple t{};
            for (unsigned c = 0; c < cr.head.arity; ++c) {
                const ColumnRef& col = cr.head.cols[c];
                t[c] = (col.kind == ColumnRef::Kind::Constant) ? col.constant : env[col.var];
            }
            if (head_new) {
                // Recursive variant: only genuinely new tuples enter NEW.
                if (!head_full.contains(t) && head_new->insert(t)) ++derived;
            } else {
                if (head_full.insert(t)) ++derived;
            }
            return;
        }

        const CompiledAtom& atom = cr.body[atom_idx];
        auto& view = *body_views[atom_idx];

        // Fully-bound atoms (incl. all negated ones) are membership tests.
        const std::uint8_t full_mask = static_cast<std::uint8_t>((1u << atom.arity) - 1);
        if (atom.bound_mask == full_mask) {
            StorageTuple probe{};
            for (unsigned c = 0; c < atom.arity; ++c) {
                const ColumnRef& col = atom.cols[c];
                probe[c] =
                    (col.kind == ColumnRef::Kind::Constant) ? col.constant : env[col.var];
            }
            const bool present = view.contains(probe);
            if (present == atom.negated) return;
            join_from(rule_idx, cr, atom_idx + 1, env, body_views, head_full, head_new,
                      derived);
            return;
        }

        const AtomPlan& plan = indexes_.plan(rule_idx, atom_idx);
        auto process = [&](const StorageTuple& t) {
            if (!bind_atom(atom, t, env)) return;
            if (!constraints_hold(cr, static_cast<int>(atom_idx), env)) return;
            join_from(rule_idx, cr, atom_idx + 1, env, body_views, head_full, head_new,
                      derived);
        };
        if constexpr (Storage::ordered) {
            if (!plan.full_scan) {
                const IndexOrder& order =
                    indexes_.relation_indexes[atom.relation][plan.index];
                StorageTuple bound{};
                for (unsigned p = 0; p < plan.bound_prefix; ++p) {
                    const ColumnRef& col = atom.cols[order.order[p]];
                    bound[p] = (col.kind == ColumnRef::Kind::Constant) ? col.constant
                                                                       : env[col.var];
                }
                view.scan_prefix(plan.index, bound, plan.bound_prefix, process);
                return;
            }
        }
        view.scan_all(process);
    }

    AnalyzedProgram prog_;
    SymbolTable symbols_;
    IndexSelection indexes_;
    std::vector<std::unique_ptr<RelationT>> relations_;
    std::vector<CompiledRule> compiled_;
    std::vector<RuleProfile> profile_;
    ViewCache<RelationT> views_;
    unsigned threads_ = 1;
    std::size_t grain_ = runtime::Scheduler::kDefaultGrain;
    std::uint64_t input_tuples_ = 0;
    std::uint64_t iterations_ = 0;
    // Incremental ingestion state: pending batches (sorted, deduplicated,
    // disjoint from FULL) awaiting the next refixpoint() group commit.
    std::map<std::size_t, std::vector<StorageTuple>> pending_;
    std::uint64_t ingest_batches_ = 0;
    std::uint64_t ingest_tuples_ = 0;
    std::uint64_t refixpoint_iterations_ = 0;
};

} // namespace dtree::datalog
