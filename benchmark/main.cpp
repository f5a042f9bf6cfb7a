// bloom87_bench: one command for the repository's end-to-end and per-layer
// metrics. See README.md in this directory for the workloads, the metrics
// and the layer each one belongs to.
//
//   bloom87_bench [--workload W|all] [--seed S] [--seconds N] [--trace 0|1]
//                 [--trace-dir DIR] [--smoke] [--json PATH] [--commit ID]
//
// Each workload runs in a child process of its own, so its peak resident
// set is its own. Output: an environment block, one line per (workload,
// metric) with median, quartiles, sample count and unit, and as the last
// line one JSON object {"correct", "attempted", "failed", "metrics"}. The
// exit code is non-zero when any correctness gate fails.
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "harness/cli.hpp"

namespace {

using bench::metric;
using bench::options;
using bench::result;

std::string number(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string quoted(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out + "\"";
}

// A child hands its result to the parent as lines of text:
//   R <correct> <attempted> <failed>
//   M <name> <unit> <median> <p25> <p75> <n>
//   G <gate failure>
std::string serialize(const result& r) {
    std::ostringstream os;
    os << "R " << (r.correct ? 1 : 0) << ' ' << r.attempted << ' ' << r.failed
       << '\n';
    for (const metric& m : r.metrics) {
        os << "M " << m.name << ' ' << m.unit << ' ' << number(m.s.median)
           << ' ' << number(m.s.p25) << ' ' << number(m.s.p75) << ' ' << m.s.n
           << '\n';
    }
    for (const std::string& g : r.gate_failures) os << "G " << g << '\n';
    return os.str();
}

result deserialize(const std::string& name, const std::string& text) {
    result r;
    r.workload = name;
    r.correct = false;
    bool seen = false;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        std::istringstream ls(line);
        std::string tag;
        ls >> tag;
        if (tag == "R") {
            int ok = 0;
            ls >> ok >> r.attempted >> r.failed;
            r.correct = ok == 1;
            seen = true;
        } else if (tag == "M") {
            metric m;
            ls >> m.name >> m.unit >> m.s.median >> m.s.p25 >> m.s.p75 >> m.s.n;
            r.metrics.push_back(m);
        } else if (tag == "G") {
            r.gate_failures.push_back(line.substr(2));
        }
    }
    r.gate(seen, "workload process ended without a result");
    return r;
}

bool write_all(int fd, const std::string& s) {
    std::size_t off = 0;
    while (off < s.size()) {
        const ssize_t n = ::write(fd, s.data() + off, s.size() - off);
        if (n <= 0) return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/// Runs one workload in a forked child and collects its result.
result run_in_child(const std::string& name, const options& opt) {
    int fds[2];
    if (::pipe(fds) != 0) {
        result r;
        r.workload = name;
        r.gate(false, "pipe() failed");
        return r;
    }
    std::fflush(stdout);
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::close(fds[0]);
        int rc = 1;
        try {
            const result r = opt.trace ? bench::run_traced(name, opt)
                                       : bench::run_workload(name, opt);
            rc = write_all(fds[1], serialize(r)) ? 0 : 1;
        } catch (const std::exception& e) {
            std::cerr << name << ": " << e.what() << "\n";
        }
        ::close(fds[1]);
        std::fflush(stdout);
        std::cerr.flush();
        ::_exit(rc);
    }
    ::close(fds[1]);
    std::string text;
    if (pid > 0) {
        char buf[4096];
        ssize_t n;
        while ((n = ::read(fds[0], buf, sizeof buf)) > 0) {
            text.append(buf, static_cast<std::size_t>(n));
        }
    }
    ::close(fds[0]);
    result r = deserialize(name, text);
    if (pid < 0) {
        r.gate(false, "fork() failed");
    } else {
        int status = 0;
        ::waitpid(pid, &status, 0);
        r.gate(WIFEXITED(status) && WEXITSTATUS(status) == 0,
               "workload process exited abnormally");
    }
    return r;
}

struct environment {
    unsigned nproc{0};
    unsigned hardware_concurrency{0};
    std::string compiler{BLOOM87_BENCH_COMPILER};
    std::string build_type{BLOOM87_BENCH_BUILD_TYPE};
};

environment probe_environment() {
    environment env;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        env.nproc = static_cast<unsigned>(CPU_COUNT(&set));
    }
    env.hardware_concurrency = std::thread::hardware_concurrency();
    return env;
}

std::string env_json(const environment& env, const options& opt) {
    std::ostringstream os;
    os << "{\"nproc\":" << env.nproc
       << ",\"hardware_concurrency\":" << env.hardware_concurrency
       << ",\"compiler\":" << quoted(env.compiler)
       << ",\"build_type\":" << quoted(env.build_type)
       << ",\"commit\":" << quoted(opt.commit) << ",\"seed\":" << opt.seed
       << ",\"seconds\":" << opt.seconds << ",\"smoke\":"
       << (opt.smoke ? "true" : "false") << ",\"trace\":"
       << (opt.trace ? "true" : "false") << "}";
    return os.str();
}

void print_lines(const result& r) {
    for (const metric& m : r.metrics) {
        std::printf("%-12s %-40s median=%-14.6g p25=%-14.6g p75=%-14.6g n=%-4zu %s\n",
                    r.workload.c_str(), m.name.c_str(), m.s.median, m.s.p25,
                    m.s.p75, m.s.n, m.unit.c_str());
    }
    std::printf("%-12s ok=%s attempted=%" PRIu64 " failed=%" PRIu64 "\n",
                r.workload.c_str(), r.correct ? "true" : "false", r.attempted,
                r.failed);
    for (const std::string& g : r.gate_failures) {
        std::printf("%-12s gate failed: %s\n", r.workload.c_str(), g.c_str());
    }
    std::fflush(stdout);
}

std::string metrics_json(const result& r, const std::string& prefix) {
    std::string out;
    for (const metric& m : r.metrics) {
        if (!out.empty()) out += ',';
        out += quoted(prefix + m.name) + ":{\"value\":" + number(m.s.median) +
               ",\"unit\":" + quoted(m.unit) + "}";
    }
    return out;
}

bool write_report(const std::string& path, const environment& env,
                  const options& opt, const std::vector<result>& results) {
    std::ofstream os(path);
    if (!os) return false;
    os << "{\"schema\":\"bloom87-bench-v1\",\"env\":" << env_json(env, opt)
       << ",\"results\":{";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const result& r = results[i];
        os << (i > 0 ? "," : "") << quoted(r.workload)
           << ":{\"correct\":" << (r.correct ? "true" : "false")
           << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
           << ",\"gate_failures\":[";
        for (std::size_t g = 0; g < r.gate_failures.size(); ++g) {
            os << (g > 0 ? "," : "") << quoted(r.gate_failures[g]);
        }
        os << "],\"metrics\":{";
        for (std::size_t m = 0; m < r.metrics.size(); ++m) {
            const metric& x = r.metrics[m];
            os << (m > 0 ? "," : "") << quoted(x.name)
               << ":{\"median\":" << number(x.s.median)
               << ",\"p25\":" << number(x.s.p25)
               << ",\"p75\":" << number(x.s.p75) << ",\"n\":" << x.s.n
               << ",\"unit\":" << quoted(x.unit) << "}";
        }
        os << "}}";
    }
    os << "}}\n";
    return static_cast<bool>(os);
}

}  // namespace

int main(int argc, char** argv) {
    options opt;
    unsigned trace = 0;
    bloom87::harness::flag_parser parser(
        "bloom87_bench", "end-to-end and per-layer benchmark of bloom87");
    parser.add_string("workload", "workload name, or all", &opt.workload);
    parser.add_uint64("seed", "input seed; rep r of a workload uses seed+r",
                      &opt.seed);
    parser.add_unsigned("seconds", "measured seconds per workload",
                        &opt.seconds);
    parser.add_unsigned("trace",
                        "1: traced run, print the per-layer metrics", &trace);
    parser.add_string("trace-dir", "where traced runs write trace_<W>.json",
                      &opt.trace_dir);
    parser.add_flag("smoke", "short run: fewer reps, shorter epochs",
                    &opt.smoke);
    parser.add_string("json", "also write the full report here",
                      &opt.json_path);
    parser.add_string("commit", "source commit, for the environment block",
                      &opt.commit);
    if (!parser.parse(argc, argv)) return 64;
    if (parser.help_requested()) return 0;
    if (trace > 1 || opt.seconds == 0 || opt.seconds > 120) {
        std::cerr << "bloom87_bench: --trace takes 0 or 1, --seconds 1..120\n";
        return 64;
    }
    opt.trace = trace == 1;

    std::vector<std::string> names;
    if (opt.workload == "all") {
        names = bench::workload_names();
    } else {
        for (const std::string& w : bench::workload_names()) {
            if (w == opt.workload) names.push_back(w);
        }
        if (names.empty()) {
            std::cerr << "bloom87_bench: unknown workload '" << opt.workload
                      << "'\n";
            return 64;
        }
    }

    const environment env = probe_environment();
    std::printf("# env %s\n", env_json(env, opt).c_str());
    std::fflush(stdout);

    std::vector<result> results;
    for (const std::string& name : names) {
        results.push_back(run_in_child(name, opt));
        print_lines(results.back());
    }

    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string metrics;
    for (const result& r : results) {
        correct = correct && r.correct;
        attempted += r.attempted;
        failed += r.failed;
        const std::string m =
            metrics_json(r, names.size() > 1 ? r.workload + "." : "");
        if (!m.empty()) metrics += (metrics.empty() ? "" : ",") + m;
    }
    if (!opt.json_path.empty() &&
        !write_report(opt.json_path, env, opt, results)) {
        std::cerr << "bloom87_bench: cannot write " << opt.json_path << "\n";
        correct = false;
    }
    std::printf("{\"correct\":%s,\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
                ",\"metrics\":{%s}}\n",
                correct ? "true" : "false", attempted, failed, metrics.c_str());
    return correct ? 0 : 1;
}
