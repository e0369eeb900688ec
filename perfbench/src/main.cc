/**
 * @file
 * perfbench_run — one run of one benchmark workload.
 *
 *   perfbench_run --workload NAME --seed N --seconds S --trace 0|1
 *                 --work-dir DIR --worker-bin PATH [--trace-out FILE]
 *                 [--corrupt serve|f64|f32|fxp]
 *
 * Prints a human-readable account and, as its last line, one JSON
 * object: correct/attempted/failed, the end-to-end metrics, the
 * per-layer metrics (traced runs) and the run's provenance. Exits 1
 * when a correctness gate failed. perfbench/run.py builds and drives
 * this binary; see perfbench/NOTES.md.
 */

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hh"
#include "common/thread_pool.hh"
#include "linalg/simd.hh"
#include "obs/stat_registry.hh"
#include "obs/trace.hh"
#include "tt/infer_session.hh"
#include "workloads.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

std::string
jsonMetrics(const std::vector<Metric> &ms)
{
    std::string s = "{";
    char buf[256];
    for (size_t i = 0; i < ms.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"value\":%.17g,"
                                        "\"unit\":\"%s\"}",
                      i ? "," : "", ms[i].name.c_str(), ms[i].value,
                      ms[i].unit.c_str());
        s += buf;
    }
    return s + "}";
}

std::string
jsonString(const std::string &v)
{
    std::string s = "\"";
    for (char c : v) {
        if (c == '"' || c == '\\')
            s += '\\';
        s += (c == '\n' ? ' ' : c);
    }
    return s + "\"";
}

const char *
fuseName(tie::FuseMode m)
{
    switch (m) {
    case tie::FuseMode::On:
        return "on";
    case tie::FuseMode::Off:
        return "off";
    default:
        return "auto";
    }
}

/** Pinned settings and host facts recorded with every result. */
std::string
provenance(const RunConfig &rc)
{
    const char *env = std::getenv("TIE_THREADS");
    const bool fast = tie::simd::resolveFastMode(tie::simd::FastMode::Env) ==
                      tie::simd::FastMode::On;
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,\"trace\":%d,"
        "\"nproc\":%u,\"TIE_THREADS\":\"%s\",\"pool_threads\":%zu,"
        "\"server_workers\":1,\"simd.isa\":\"%s\",\"fast\":\"%s\","
        "\"fuse\":\"%s\",\"build_type\":\"%s\",\"placement\":\"%s\"}",
        rc.workload.c_str(), (unsigned long long)rc.seed, rc.seconds,
        rc.trace ? 1 : 0, std::thread::hardware_concurrency(),
        env ? env : "", tie::threadCount(),
        tie::simd::isaName(tie::simd::activeIsa()), fast ? "on" : "off",
        fuseName(tie::resolveFuseMode(tie::FuseMode::Env)),
        PERFBENCH_BUILD_TYPE,
        placementOn() ? "load 0,3 served 1,2" : "none");
    return buf;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_run --workload NAME --seed N --seconds S"
                 " --trace 0|1 --work-dir DIR --worker-bin PATH"
                 " [--trace-out FILE] [--corrupt serve|f64|f32|fxp]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    RunConfig rc;
    std::string trace_out;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            rc.workload = v;
        else if (k == "--seed")
            rc.seed = std::stoull(v);
        else if (k == "--seconds")
            rc.seconds = std::stod(v);
        else if (k == "--trace")
            rc.trace = v == "1";
        else if (k == "--work-dir")
            rc.work_dir = v;
        else if (k == "--worker-bin")
            rc.worker_bin = v;
        else if (k == "--trace-out")
            trace_out = v;
        else if (k == "--corrupt")
            rc.corrupt = v;
        else
            return usage();
    }
    if (rc.workload.empty() || rc.work_dir.empty() || rc.seconds <= 0)
        return usage();
    ::mkdir(rc.work_dir.c_str(), 0755);
    // The benchmark's own threads stay on the load-side CPUs for the
    // whole run; what it serves is pinned where it is started.
    const CpuPin load_side({0, 3});

    const std::string prov = provenance(rc);
    std::printf("provenance: %s\n", prov.c_str());
    if (rc.trace) {
        // The traced run also turns on the library's own stats (serve
        // counters) and the pid-1 simulator trace; host and serve
        // timelines stay off so the trace holds the benchmark's spans.
        tie::obs::setEnabled(true);
        tie::obs::Trace::instance().setCategories(true, false);
        tie::obs::Trace::instance().setServeCategory(false);
        Tracer::instance().enable(true);
    }

    const double steal0 = stealSeconds();
    Result r;
    runWorkload(rc, r);
    const double steal_s = steal0 < 0 ? -1 : stealSeconds() - steal0;
    std::printf("host steal during the run: %.2f s of vCPU time\n", steal_s);

    if (rc.trace && !trace_out.empty()) {
        std::ofstream f(trace_out);
        f << mergeTrace(tie::obs::Trace::instance().toJson(),
                        Tracer::instance().collect());
        std::printf("trace: %s\n", trace_out.c_str());
    }
    for (const std::string &f : r.failures)
        std::printf("FAILED: %s\n", f.c_str());
    std::printf("errors: %llu of %llu attempted requests shed, rejected or "
                "timed out\n",
                (unsigned long long)r.failed,
                (unsigned long long)r.attempted);
    for (const Metric &m : r.end_to_end)
        std::printf("  %-28s %14.4f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    for (const Metric &m : r.per_layer)
        std::printf("  %-40s %14.4f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    std::string failures = "[";
    for (size_t i = 0; i < r.failures.size(); ++i) {
        if (i > 0)
            failures += ",";
        failures += jsonString(r.failures[i]);
    }
    failures += "]";
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"end_to_end\":%s,\"per_layer\":%s,\"provenance\":%s,"
                "\"steal_s\":%.2f,\"failures\":%s}\n",
                r.correct ? "true" : "false",
                (unsigned long long)r.attempted,
                (unsigned long long)r.failed,
                jsonMetrics(r.end_to_end).c_str(),
                jsonMetrics(r.per_layer).c_str(), prov.c_str(), steal_s,
                failures.c_str());
    std::fflush(stdout);
    return r.correct ? 0 : 1;
}
