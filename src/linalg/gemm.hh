/**
 * @file
 * Blocked, multithreaded GEMM/GEMV kernels on raw row-major buffers.
 * matmul / matVec (linalg), InferSession (tt) and fxpMatmul (quant)
 * dispatch here, so every GEMM-shaped stage in the library shares one
 * execution layer. Every float/double GEMM runs over a packed A
 * operand (linalg/pack.hh): sessions pack their cores once, matmul
 * packs per call.
 *
 * Determinism: work is partitioned over *output* rows or columns, so
 * each output element is produced by exactly one chunk and its k-loop
 * runs in the same ascending order as the serial kernel. Results are
 * bit-identical for every thread count (see docs/performance.md).
 *
 * The TT compact-scheme stages are short and wide (tens of rows, tens
 * of thousands of batched columns), so the kernels split whichever
 * output axis is larger rather than always splitting rows.
 *
 * Float and double tiles dispatch to the packed SIMD microkernels
 * (linalg/simd.hh): lanes run across output columns only, so the SIMD
 * paths are bit-identical to the scalar reference for every ISA and
 * the determinism guarantee above is ISA-independent.
 */

#ifndef TIE_LINALG_GEMM_HH
#define TIE_LINALG_GEMM_HH

#include <algorithm>
#include <cstddef>
#include <type_traits>

#include "common/thread_pool.hh"
#include "linalg/pack.hh"
#include "linalg/simd.hh"
#include "obs/stat_registry.hh"
#include "obs/trace.hh"

namespace tie {
namespace gemm {

/** Cached references to the kernel-layer stats (see obs/). */
struct KernelStats
{
    obs::Counter &gemm_calls;
    obs::Counter &gemm_madds; ///< multiply-adds issued (m*n*k)
    obs::Counter &gemv_calls;
    obs::Counter &gemv_madds;
    obs::Distribution &gemm_us;
    obs::Gauge &simd_isa; ///< active dispatch path (simd::Isa ordinal)
    obs::Counter &packed_panels; ///< operand panels packed (A + B)
    obs::Counter &pack_bytes;    ///< bytes written into packed panels
    obs::Counter &fxp_simd_macs;   ///< fxp MACs run in SIMD lanes
    obs::Counter &fxp_scalar_macs; ///< fxp MACs run by the scalar chain

    static KernelStats &
    get()
    {
        static KernelStats s{
            obs::StatRegistry::instance().counter(
                "gemm.calls", "blocked GEMM invocations"),
            obs::StatRegistry::instance().counter(
                "gemm.madds", "GEMM multiply-adds issued"),
            obs::StatRegistry::instance().counter(
                "gemv.calls", "blocked GEMV invocations"),
            obs::StatRegistry::instance().counter(
                "gemv.madds", "GEMV multiply-adds issued"),
            obs::StatRegistry::instance().distribution(
                "gemm.call_us", "wall-clock microseconds per GEMM"),
            obs::StatRegistry::instance().gauge(
                "simd.isa",
                "active SIMD path (0=scalar 1=sse 2=avx2 3=neon)"),
            obs::StatRegistry::instance().counter(
                "gemm.packed_panels",
                "operand panels packed for the microkernel"),
            obs::StatRegistry::instance().counter(
                "gemm.pack_bytes",
                "bytes written into packed operand panels"),
            obs::StatRegistry::instance().counter(
                "fxp.simd_macs",
                "fixed-point MACs run by the SIMD lane chain"),
            obs::StatRegistry::instance().counter(
                "fxp.scalar_macs",
                "fixed-point MACs run by the scalar chain (Isa::Scalar "
                "or a format fxpSimdEligible rejects)"),
        };
        return s;
    }
};

/** Rows of C per parallel chunk when splitting the row axis. */
inline constexpr size_t kRowBlock = 16;
/** Columns of C per parallel chunk when splitting the column axis. */
inline constexpr size_t kColBlock = 256;
/** k-panel width; one panel of B rows stays hot across an i-block. */
inline constexpr size_t kDepthBlock = 128;
/** Below this many multiply-adds the serial kernel is always used. */
inline constexpr size_t kParallelMinWork = size_t(1) << 15;

/**
 * Vector lane count of the active float GEMM path (1 when the
 * dispatcher resolved to scalar); tests pin expectations against it.
 */
inline size_t
simdWidth()
{
    return simd::floatLanes(simd::activeIsa());
}

/**
 * Gather view of a GEMM B operand, used to fuse the TT inter-stage
 * Transform (a pure permutation) into the next stage's operand read so
 * the transformed matrix is never materialized (tt/infer_session.hh).
 *
 * The virtual B has batch column blocks of cols_out columns each;
 * element (kk, b * cols_out + q) is read from the source buffer at
 * offset[kk * cols_out + q] + b * block_stride. The offset table is
 * precomputed once per (permutation, batch) by the caller.
 */
struct GatherB
{
    const size_t *offset = nullptr; ///< k x cols_out base offsets
    size_t cols_out = 0;            ///< columns per batch block
    size_t block_stride = 0;        ///< source offset step per block
    size_t batch = 1;
};

/**
 * Inner tile over a packed A operand (linalg/pack.hh), dispatching to
 * the register-blocked microkernel. @p fast only affects float (see
 * simd::FastMode); with fast false the result is bit-identical to
 * simd::gemmRefF32/F64 on the unpacked operands for every ISA.
 */
template <typename T>
inline void
gemmPackedTile(size_t k, const T *pa, const T *b, size_t ldb, T *c,
               size_t ldc, bool fast, size_t i0, size_t i1, size_t j0,
               size_t j1)
{
    static_assert(std::is_same_v<T, float> ||
                      std::is_same_v<T, double>,
                  "packed kernels exist for float and double only");
    if constexpr (std::is_same_v<T, float>)
        simd::gemmPackedF32(simd::activeIsa(), fast, k, pa, b, ldb, c,
                            ldc, i0, i1, j0, j1);
    else
        simd::gemmPackedF64(simd::activeIsa(), fast, k, pa, b, ldb, c,
                            ldc, i0, i1, j0, j1);
}

/**
 * C = packedA * B (C zero-initialised m x n row-major, B k x n
 * row-major, pa packed by pack::packA), parallelised over blocks of
 * the larger output axis. kRowBlock is a multiple of pack::kRowPanel,
 * so row chunks always start on a panel boundary as the microkernel
 * requires.
 */
template <typename T>
void
gemmPackedBlocked(size_t m, size_t n, size_t k, const T *pa,
                  const T *b, T *c, bool fast)
{
    if (m == 0 || n == 0 || k == 0)
        return;
    if (obs::enabled()) {
        KernelStats &ks = KernelStats::get();
        ks.gemm_calls.add();
        ks.gemm_madds.add(m * n * k);
        ks.simd_isa.set(static_cast<int64_t>(simd::activeIsa()));
    }
    obs::ScopedTimer timer(KernelStats::get().gemm_us);
    obs::HostSpan span("gemm.packed");
    if (m * n * k < kParallelMinWork) {
        gemmPackedTile(k, pa, b, n, c, n, fast, 0, m, 0, n);
        return;
    }
    if (m >= n) {
        parallelFor(0, m, kRowBlock, [&](size_t i0, size_t i1) {
            obs::HostSpan tile("gemm.tile");
            gemmPackedTile(k, pa, b, n, c, n, fast, i0, i1, 0, n);
        });
    } else {
        parallelFor(0, n, kColBlock, [&](size_t j0, size_t j1) {
            obs::HostSpan tile("gemm.tile");
            gemmPackedTile(k, pa, b, n, c, n, fast, 0, m, j0, j1);
        });
    }
}

/**
 * The fused-stage driver of every dtype: out = A * gather(B), n =
 * g.cols_out * g.batch columns. Each kColBlock-wide panel of the
 * virtual B is gathered contiguously into @p bscratch (k x w, caller
 * owned, >= k * min(n, kColBlock) elements), then
 * @p tile(panel, w, p0, i0, i1) computes output rows [i0, i1) of
 * columns [p0, p0 + w) as a dense product over it — one sequential
 * pass per element instead of an indirect read per output row, which
 * defeats vectorization (docs/performance.md).
 *
 * The panel loop is serial (one shared scratch); the gather and the
 * tiles parallelise inside each panel over disjoint rows (tile rows in
 * kRowBlock chunks, a multiple of pack::kRowPanel as the packed
 * microkernel needs), and each output element keeps one ascending-k
 * chain, so results are bit-identical for every thread count and to
 * materializing B.
 */
template <typename T, typename Tile>
void
gatheredPanels(size_t m, size_t k, const T *v, const GatherB &g,
               T *bscratch, const Tile &tile)
{
    const size_t n = g.cols_out * g.batch;
    for (size_t p0 = 0; p0 < n; p0 += kColBlock) {
        const size_t w = std::min(n, p0 + kColBlock) - p0;
        auto gatherRows = [&](size_t klo, size_t khi) {
            for (size_t kk = klo; kk < khi; ++kk) {
                const size_t *off = g.offset + kk * g.cols_out;
                T *dst = bscratch + kk * w;
                size_t q = p0 % g.cols_out;
                const T *vb =
                    v + (p0 / g.cols_out) * g.block_stride;
                for (size_t jj = 0; jj < w; ++jj) {
                    dst[jj] = vb[off[q]];
                    if (++q == g.cols_out) {
                        q = 0;
                        vb += g.block_stride;
                    }
                }
            }
        };
        if (k * w < kParallelMinWork)
            gatherRows(0, k);
        else
            parallelFor(0, k, 0, gatherRows);
        pack::addPackStats(1, k * w * sizeof(T));
        auto rows = [&](size_t i0, size_t i1) {
            obs::HostSpan span("gemm.tile");
            tile(bscratch, w, p0, i0, i1);
        };
        if (m * w * k < kParallelMinWork)
            rows(0, m);
        else
            parallelFor(0, m, kRowBlock, rows);
    }
}

/**
 * C = packedA * gather(B) (C zero-initialised, m x cols_out*batch
 * row-major): gatheredPanels over the packed microkernel, so with
 * @p fast false it is bit-identical to the scalar simd::gemmRefF32/F64
 * chain on the materialized B.
 */
template <typename T>
void
gemmPackedGatheredBlocked(size_t m, size_t k, const T *pa, const T *v,
                          const GatherB &g, T *c, T *bscratch,
                          bool fast)
{
    const size_t n = g.cols_out * g.batch;
    if (m == 0 || n == 0 || k == 0)
        return;
    if (obs::enabled()) {
        KernelStats &ks = KernelStats::get();
        ks.gemm_calls.add();
        ks.gemm_madds.add(m * n * k);
        ks.simd_isa.set(static_cast<int64_t>(simd::activeIsa()));
    }
    obs::ScopedTimer timer(KernelStats::get().gemm_us);
    obs::HostSpan span("gemm.packed_gathered");
    gatheredPanels(m, k, v, g, bscratch,
                   [&](const T *panel, size_t w, size_t p0, size_t i0,
                       size_t i1) {
                       // The column window shares C's row stride n.
                       gemmPackedTile(k, pa, panel, w, c + p0, n, fast,
                                      i0, i1, 0, w);
                   });
}

/** y = A * x with A (m x n) row-major, parallelised over rows. */
template <typename T>
void
gemvBlocked(size_t m, size_t n, const T *a, const T *x, T *y)
{
    if (obs::enabled()) {
        KernelStats &ks = KernelStats::get();
        ks.gemv_calls.add();
        ks.gemv_madds.add(m * n);
    }
    auto rows = [&](size_t i0, size_t i1) {
        for (size_t i = i0; i < i1; ++i) {
            const T *row = a + i * n;
            T acc = T(0);
            for (size_t j = 0; j < n; ++j)
                acc += row[j] * x[j];
            y[i] = acc;
        }
    };
    if (m * n < kParallelMinWork) {
        rows(0, m);
        return;
    }
    parallelFor(0, m, kRowBlock, rows);
}

} // namespace gemm
} // namespace tie

#endif // TIE_LINALG_GEMM_HH
