#pragma once

// Tiny flag parser shared by the figure-reproduction benches. Supports
// --name=value and boolean --name forms. Positional arguments (anything not
// starting with "--") are reported on stderr and ignored. Every --flag is
// stored without validation; a tool whose flag set is closed calls
// first_unknown() so a misspelt or retired option fails loudly instead of
// being silently ignored. Numeric accessors are STRICT:
// `--jobs=abc` or an out-of-range value throws std::runtime_error naming the
// flag instead of silently parsing as 0 / wrapping (strtoull's behaviour) —
// a long-running serve process must not start with a misread configuration.

#include <algorithm>
#include <cstdint>
#include <cstddef>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace dtree::util {

class Cli {
public:
    Cli(int argc, char** argv) {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg.rfind("--", 0) != 0) {
                std::cerr << "ignoring positional argument: " << arg << "\n";
                continue;
            }
            arg = arg.substr(2);
            auto eq = arg.find('=');
            if (eq == std::string::npos) {
                flags_[arg] = "1";
            } else {
                flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
            }
        }
    }

    bool has(const std::string& name) const { return flags_.count(name) > 0; }

    bool get_bool(const std::string& name, bool def = false) const {
        auto it = flags_.find(name);
        if (it == flags_.end()) return def;
        return it->second != "0" && it->second != "false";
    }

    std::uint64_t get_u64(const std::string& name, std::uint64_t def) const {
        auto it = flags_.find(name);
        if (it == flags_.end()) return def;
        return parse_u64(name, it->second);
    }

    std::string get_str(const std::string& name, std::string def) const {
        auto it = flags_.find(name);
        if (it == flags_.end()) return def;
        return it->second;
    }

    /// Every parsed flag, name -> value ("1" for bare booleans). Used by the
    /// bench JSON reports to record the exact configuration of a run.
    const std::map<std::string, std::string>& flags() const { return flags_; }

    /// The first parsed flag (in name order) not in `known`, or "" when
    /// every flag is known.
    std::string first_unknown(std::initializer_list<std::string_view> known) const {
        for (const auto& [name, value] : flags_) {
            if (std::find(known.begin(), known.end(), name) == known.end()) {
                return name;
            }
        }
        return {};
    }

    /// Comma-separated unsigned list, e.g. --threads=1,2,4,8.
    std::vector<unsigned> get_list(const std::string& name,
                                   std::vector<unsigned> def) const {
        auto it = flags_.find(name);
        if (it == flags_.end()) return def;
        std::vector<unsigned> out;
        const std::string& s = it->second;
        std::size_t pos = 0;
        while (pos < s.size()) {
            auto comma = s.find(',', pos);
            if (comma == std::string::npos) comma = s.size();
            const std::uint64_t v = parse_u64(name, s.substr(pos, comma - pos));
            if (v > std::numeric_limits<unsigned>::max()) {
                throw std::runtime_error("--" + name + ": element " +
                                         std::to_string(v) + " out of range");
            }
            out.push_back(static_cast<unsigned>(v));
            pos = comma + 1;
        }
        return out;
    }

    /// Strict decimal parse: every character a digit, no 64-bit wraparound.
    static std::uint64_t parse_u64(const std::string& name, const std::string& text) {
        if (text.empty()) {
            throw std::runtime_error("--" + name + ": expected unsigned integer, got \"\"");
        }
        std::uint64_t v = 0;
        for (char c : text) {
            if (c < '0' || c > '9') {
                throw std::runtime_error("--" + name +
                                         ": expected unsigned integer, got \"" + text + "\"");
            }
            const std::uint64_t d = static_cast<std::uint64_t>(c - '0');
            if (v > (std::numeric_limits<std::uint64_t>::max() - d) / 10) {
                throw std::runtime_error("--" + name + "=" + text +
                                         " does not fit in 64 bits");
            }
            v = v * 10 + d;
        }
        return v;
    }

private:
    std::map<std::string, std::string> flags_;
};

} // namespace dtree::util
