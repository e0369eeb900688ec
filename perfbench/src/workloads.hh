/**
 * @file
 * The four benchmark workloads and the per-layer module probes.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <string>
#include <vector>

#include "bench.hh"
#include "io/tie_format.hh"

namespace perfbench {

/** One run's settings, from the command line. */
struct RunConfig
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string work_dir;   ///< scratch directory inside the checkout
    std::string worker_bin; ///< tie_worker executable
    /** Self-test hook: "serve" (the served-request oracle), "f64",
        "f32" or "fxp" (the offline batch oracles) flips one bit of that
        oracle, so the matching correctness gate must fail the run. */
    std::string corrupt;
};

/** Run @p rc.workload; fills end-to-end (and, traced, per-layer). */
void runWorkload(const RunConfig &rc, Result &r);

/**
 * Module probes of a traced run, measured on @p models (the layers the
 * workload serves): io, tt, common, linalg, quant, arch and net.
 * @p load_ms are the artifact load times the set-up recorded.
 */
void probeModules(const std::vector<tie::io::TieModel> &models,
                  const std::vector<double> &load_ms, uint64_t seed,
                  Result &r);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
