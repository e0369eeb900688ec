/**
 * @file
 * Per-layer module probes of a traced run. Each probe times public
 * calls of one module in isolation on the layers the workload serves,
 * so its figure can be read against the end-to-end metrics it should
 * move (the table in NOTES.md).
 */

#include <algorithm>
#include <cstdio>
#include <functional>
#include <thread>

#include "arch/tie_sim.hh"
#include "bench.hh"
#include "cluster/wire.hh"
#include "common/random.hh"
#include "common/thread_pool.hh"
#include "core/workloads.hh"
#include "linalg/gemm.hh"
#include "linalg/pack.hh"
#include "quant/fxp.hh"
#include "serve/load_gen.hh"
#include "tt/cost_model.hh"
#include "tt/infer_session.hh"
#include "workloads.hh"

namespace perfbench {

using namespace tie;

namespace {

/** Median µs of @p fn over at least @p min_reps calls and ~@p budget_s. */
double
timeUs(const std::function<void()> &fn, size_t min_reps, double budget_s)
{
    fn(); // warm
    std::vector<double> t;
    const uint64_t end = nowNs() + uint64_t(budget_s * 1e9);
    while (t.size() < min_reps || nowNs() < end) {
        const uint64_t t0 = nowNs();
        fn();
        t.push_back(usBetween(t0, nowNs()));
        if (t.size() >= 2000)
            break;
    }
    return median(t);
}

/** Median µs of one runPtr at @p batch on @p s. */
double
inferUs(InferSessionD &s, size_t batch, uint64_t seed)
{
    const TtLayerConfig &cfg = s.config();
    std::vector<double> x(cfg.inSize() * batch), y(cfg.outSize() * batch);
    Rng rng(seed);
    for (double &v : x)
        v = rng.uniform(-1, 1);
    return timeUs([&] { s.runPtr(x.data(), batch, y.data()); },
                  batch >= 32 ? 5 : 20, 0.15);
}

/** Isolated packed f64 GEMM at every b=1 stage shape of @p cfg (µs). */
std::vector<double>
stageKernelUs(const TtLayerConfig &cfg, uint64_t seed)
{
    std::vector<double> out;
    Rng rng(seed);
    for (size_t h = cfg.d(); h >= 1; --h) {
        const size_t m = cfg.coreRows(h), k = cfg.coreCols(h),
                     n = cfg.stageCols(h);
        std::vector<double> a(m * k), b(k * n), c(m * n, 0.0);
        for (double &v : a)
            v = rng.uniform(-1, 1);
        for (double &v : b)
            v = rng.uniform(-1, 1);
        pack::AlignedBuf<double> pa;
        pa.resize(pack::packedAElems(m, k));
        pack::packA(m, k, a.data(), pa.data());
        out.push_back(timeUs(
            [&] {
                std::fill(c.begin(), c.end(), 0.0);
                gemm::gemmPackedBlocked(m, n, k, pa.data(), b.data(),
                                        c.data(), false);
            },
            20, 0.03));
    }
    std::reverse(out.begin(), out.end()); // index h-1
    return out;
}

/** Isolated fxp matmul at every batch-32 stage shape (total µs). */
double
fxpKernelUs(const TtFxpLayerView &v, uint64_t seed)
{
    const TtLayerConfig &cfg = v.cfg;
    Rng rng(seed);
    double total = 0;
    for (size_t h = cfg.d(); h >= 1; --h) {
        const CoreView<int16_t> &w = v.cores[h - 1];
        const size_t n = cfg.stageCols(h) * 32;
        std::vector<int16_t> x(w.cols * n), y(w.rows * n);
        for (int16_t &e : x)
            e = int16_t(rng.intIn(-2000, 2000));
        total += timeUs(
            [&] {
                fxpMatmulRaw(w.rows, w.cols, n, w.data, x.data(),
                             v.fmt[h - 1], y.data());
            },
            5, 0.03);
    }
    return total;
}

} // namespace

void
probeModules(const std::vector<io::TieModel> &models,
             const std::vector<double> &load_ms, uint64_t seed, Result &r)
{
    const uint64_t t_probe = nowNs();
    r.layer("io.load_ms", median(load_ms), "ms");

    // tt: build, footprint, batch-1/8/32 latency.
    std::vector<std::unique_ptr<InferSessionD>> sessions;
    double build_ms = 0, packed = 0;
    for (const io::TieModel &m : models) {
        std::vector<double> t;
        for (int i = 0; i < 5; ++i) {
            ScopedSpan s("tt.session_build", "tt", 0);
            const uint64_t t0 = nowNs();
            sessions.push_back(std::make_unique<InferSessionD>(m.layer(0)));
            t.push_back(double(nowNs() - t0) / 1e6);
            if (i < 4)
                sessions.pop_back();
        }
        build_ms += median(t);
        packed += double(sessions.back()->packedBytes());
    }
    double b1 = 0, b8 = 0, b32 = 0, mults = 0;
    for (auto &s : sessions) {
        b1 += inferUs(*s, 1, seed);
        b8 += inferUs(*s, 8, seed);
        b32 += inferUs(*s, 32, seed);
        mults += double(multCompact(s->config()));
    }
    const double n_models = double(models.size());
    r.layer("tt.session_build_ms", build_ms, "ms");
    r.layer("tt.packed_bytes", packed, "bytes");
    r.layer("tt.infer_us.b1", b1 / n_models, "us");
    r.layer("tt.infer_us.b8", b8 / n_models, "us");
    r.layer("tt.gmults_per_s.b1", mults / b1 / 1e3, "G/s");
    r.layer("tt.batch_eff.b8", b1 / (b8 / 8), "ratio");
    r.layer("tt.batch_eff.b32", b1 / (b32 / 32), "ratio");

    // common: batch-1 latency at one thread over that at nproc threads
    // (serving pins the pool to one thread; see NOTES.md).
    const size_t pinned = threadCount();
    setThreadCount(1);
    double one = 0;
    for (auto &s : sessions)
        one += inferUs(*s, 1, seed);
    setThreadCount(std::max(2u, std::thread::hardware_concurrency()));
    double many = 0;
    for (auto &s : sessions)
        many += inferUs(*s, 1, seed);
    setThreadCount(pinned);
    r.layer("common.thread_speedup.b1", one / many, "ratio");

    // linalg: the isolated stage GEMMs of FC6 and LSTM-Youtube, and
    // their share of this workload's session time.
    const std::pair<const char *, TtLayerConfig> fixed[] = {
        {"fc6", workloads::vggFc6()}, {"lstm", workloads::lstmYoutube()}};
    for (const auto &[name, cfg] : fixed) {
        const std::vector<double> us = stageKernelUs(cfg, seed);
        for (size_t h = 1; h <= cfg.d(); ++h) {
            const double mk = double(cfg.coreRows(h) * cfg.coreCols(h) *
                                     cfg.stageCols(h));
            r.layer(std::string("linalg.") + name + ".stage" +
                        std::to_string(h) + ".gmults_per_s",
                    mk / us[h - 1] / 1e3, "G/s");
        }
    }
    double kernel_us = 0;
    for (auto &s : sessions)
        for (double us : stageKernelUs(s->config(), seed))
            kernel_us += us;
    r.layer("linalg.kernel_share", kernel_us / b1, "ratio");

    // quant: the fxp session at batch 32 against its own kernel.
    double q_session_us = 0, q_kernel_us = 0, q_mults = 0;
    for (const io::TieModel &m : models) {
        const TtFxpLayerView v = m.fxpLayer(0);
        InferSessionFxp q(v);
        Matrix<int16_t> x(v.cfg.inSize(), 32), y;
        Rng rng(seed);
        for (int16_t &e : x.flat())
            e = int16_t(rng.intIn(-2000, 2000));
        {
            ScopedSpan s("quant.session", "quant", 0);
            q_session_us += timeUs([&] { q.runInto(x, y); }, 5, 0.1);
        }
        {
            ScopedSpan s("quant.kernel", "quant", 0);
            q_kernel_us += fxpKernelUs(v, seed);
        }
        q_mults += 32.0 * double(multCompact(v.cfg));
    }
    r.layer("quant.session_gmults_per_s", q_mults / q_session_us / 1e3,
            "G/s");
    r.layer("quant.kernel_gmults_per_s", q_mults / q_kernel_us / 1e3, "G/s");
    r.layer("quant.efficiency", q_kernel_us / q_session_us, "ratio");

    // arch: one b=1 sample through the cycle-level simulator. Its
    // pid-1 trace events land in the same trace as the spans.
    TieSimulator sim;
    double cycles = 0, sim_ms = 0;
    for (const io::TieModel &m : models) {
        const TtMatrixFxp fxp = m.toTtMatrixFxp(0);
        Matrix<int16_t> x(fxp.config.inSize(), 1);
        Rng rng(seed);
        for (int16_t &e : x.flat())
            e = int16_t(rng.intIn(-2000, 2000));
        ScopedSpan s("arch.sim", "arch", 0);
        const uint64_t t0 = nowNs();
        cycles += double(sim.runLayer(fxp, x).stats.cycles);
        sim_ms += double(nowNs() - t0) / 1e6;
    }
    const double sim_us = cycles / sim.config().freq_mhz;
    r.layer("arch.sim_cycles", cycles, "cycles");
    r.layer("arch.sim_host_ms", sim_ms, "ms");
    r.layer("arch.host_over_sim", b1 / sim_us, "ratio");

    // net: the wire codec on this workload's request/response payloads.
    double req_b = 0, resp_b = 0, enc_us = 0, dec_us = 0;
    for (const io::TieModel &m : models) {
        cluster::InferRequestMsg rq;
        rq.req_id = 1;
        rq.x = serve::makeRequestInput(seed, 0, m.inSize());
        cluster::InferResponseMsg rs;
        rs.req_id = 1;
        rs.status = 3;
        rs.y = serve::makeRequestInput(seed, 1, m.outSize());
        std::vector<uint8_t> fq, fs;
        ScopedSpan s("net.codec", "net", 0);
        enc_us += timeUs(
            [&] {
                const std::vector<uint8_t> pq =
                    cluster::encodeInferRequest(rq);
                const std::vector<uint8_t> ps =
                    cluster::encodeInferResponse(rs);
                fq = cluster::encodeFrame(cluster::WireType::InferRequest,
                                          pq.data(), pq.size());
                fs = cluster::encodeFrame(cluster::WireType::InferResponse,
                                          ps.data(), ps.size());
            },
            50, 0.03);
        req_b += double(fq.size());
        resp_b += double(fs.size());
        bool ok = true;
        dec_us += timeUs(
            [&] {
                cluster::WireFrame f;
                size_t used = 0;
                cluster::InferRequestMsg q2;
                cluster::InferResponseMsg s2;
                ok = ok &&
                     cluster::tryDecodeFrame(fq.data(), fq.size(), &f,
                                             &used) ==
                         cluster::DecodeStatus::Ok &&
                     cluster::decodeInferRequest(f, &q2) && q2.x == rq.x &&
                     cluster::tryDecodeFrame(fs.data(), fs.size(), &f,
                                             &used) ==
                         cluster::DecodeStatus::Ok &&
                     cluster::decodeInferResponse(f, &s2) && s2.y == rs.y;
            },
            50, 0.03);
        if (!ok)
            r.fail("wire codec round trip changed a payload");
    }
    r.layer("net.req_bytes", req_b / n_models, "bytes");
    r.layer("net.resp_bytes", resp_b / n_models, "bytes");
    r.layer("net.encode_us", enc_us / n_models, "us");
    r.layer("net.decode_us", dec_us / n_models, "us");
    std::printf("module probes: %.2f s\n", double(nowNs() - t_probe) / 1e9);
}

} // namespace perfbench
