#pragma once

// The result of one run: named metrics with units and sample counts, and the
// tally of checked operations. check() may be called from several threads
// (the serve phase's writer and reader); add() and write() only from one.

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "util/json.h"

#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

class Report {
public:
    void add(const std::string& name, double value, const std::string& unit,
             std::uint64_t samples = 1) {
        metrics_.push_back({name, value, unit, samples});
    }
    void check(bool ok, const std::string& what) {
        std::lock_guard<std::mutex> lk(mu_);
        ++attempted_;
        if (!ok) {
            ++failed_;
            if (problems_.size() < 16) problems_.push_back(what);
        }
    }
    bool ok() const {
        std::lock_guard<std::mutex> lk(mu_);
        return failed_ == 0;
    }

    void write(std::ostream& os, const std::string& workload, std::uint64_t seed,
               int trace, double wall_s) const {
        using dtree::json::Writer;
        Writer w(os, /*pretty=*/false);
        w.begin_object();
        w.kv("workload", workload);
        w.kv("seed", seed);
        w.kv("trace", trace);
        w.kv("correct", ok());
        w.kv("attempted", attempted_);
        w.kv("failed", failed_);
        w.key("problems");
        w.begin_array();
        for (const auto& p : problems_) w.value(p);
        w.end_array();
        w.key("metrics");
        w.begin_object();
        for (const auto& m : metrics_) {
            w.key(m.name);
            w.begin_object();
            w.kv("value", m.value);
            w.kv("unit", m.unit);
            w.kv("samples", m.samples);
            w.end_object();
        }
        w.end_object();
        w.key("build");
        w.begin_object();
        w.kv("compiler", std::string("g++ ") + __VERSION__);
        w.kv("flags", PERFBENCH_FLAGS);
        w.kv("build_type", PERFBENCH_BUILD_TYPE);
        w.kv("avx2", static_cast<bool>(__builtin_cpu_supports("avx2")));
        w.kv("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
        w.end_object();
        w.kv("wall_s", wall_s);
        w.end_object(); // closing the top level ends the line
    }

private:
    struct Metric {
        std::string name;
        double value;
        std::string unit;
        std::uint64_t samples;
    };

    std::vector<Metric> metrics_;
    mutable std::mutex mu_;
    std::uint64_t attempted_ = 0, failed_ = 0;
    std::vector<std::string> problems_;
};

} // namespace perfbench
