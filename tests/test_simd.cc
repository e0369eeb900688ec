/**
 * @file
 * Tests for the SIMD kernel layer (linalg/simd.hh, quant/fxp_simd.hh):
 * TIE_SIMD resolution, and the determinism contract — every supported
 * ISA must be bit-identical to the scalar reference for the float,
 * double and fixed-point kernels, including remainder columns and
 * unaligned block starts.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/random.hh"
#include "linalg/gemm.hh"
#include "linalg/matrix.hh"
#include "linalg/pack.hh"
#include "linalg/simd.hh"
#include "quant/fxp.hh"
#include "quant/fxp_simd.hh"

namespace tie {
namespace {

using simd::Isa;

/** Every ISA this build + host can actually execute. */
std::vector<Isa>
supportedIsas()
{
    std::vector<Isa> out;
    for (Isa isa : {Isa::Scalar, Isa::Sse42, Isa::Avx2, Isa::Neon}) {
        if (simd::isaSupported(isa))
            out.push_back(isa);
    }
    return out;
}

constexpr unsigned kAll = 0xf; // synthetic mask: everything supported
constexpr unsigned
bit(Isa isa)
{
    return 1u << static_cast<unsigned>(isa);
}

TEST(SimdResolve, EmptyPicksBestSupported)
{
    EXPECT_EQ(simd::resolveIsa(nullptr, kAll), Isa::Avx2);
    EXPECT_EQ(simd::resolveIsa("", kAll), Isa::Avx2);
    EXPECT_EQ(simd::resolveIsa(nullptr, bit(Isa::Scalar) | bit(Isa::Sse42)),
              Isa::Sse42);
    EXPECT_EQ(simd::resolveIsa(nullptr, bit(Isa::Scalar) | bit(Isa::Neon)),
              Isa::Neon);
    EXPECT_EQ(simd::resolveIsa(nullptr, bit(Isa::Scalar)), Isa::Scalar);
}

TEST(SimdResolve, ExplicitNamesResolve)
{
    EXPECT_EQ(simd::resolveIsa("scalar", kAll), Isa::Scalar);
    EXPECT_EQ(simd::resolveIsa("sse", kAll), Isa::Sse42);
    EXPECT_EQ(simd::resolveIsa("avx2", kAll), Isa::Avx2);
    EXPECT_EQ(simd::resolveIsa("neon", kAll), Isa::Neon);
    // scalar is always supported, even with a bare mask.
    EXPECT_EQ(simd::resolveIsa("scalar", bit(Isa::Scalar)), Isa::Scalar);
}

TEST(SimdResolve, UnsupportedRequestIsFatal)
{
    EXPECT_EXIT(simd::resolveIsa("avx2", bit(Isa::Scalar)),
                ::testing::ExitedWithCode(1), "not supported");
    EXPECT_EXIT(simd::resolveIsa("neon", bit(Isa::Scalar) | bit(Isa::Avx2)),
                ::testing::ExitedWithCode(1), "not supported");
}

TEST(SimdResolve, MalformedValueIsFatal)
{
    EXPECT_EXIT(simd::resolveIsa("avx512", kAll),
                ::testing::ExitedWithCode(1),
                "must be scalar, sse, avx2 or neon");
    EXPECT_EXIT(simd::resolveIsa("AVX2", kAll),
                ::testing::ExitedWithCode(1),
                "must be scalar, sse, avx2 or neon");
}

TEST(SimdResolve, ActiveIsaIsSupportedAndStable)
{
    const Isa isa = simd::activeIsa();
    EXPECT_TRUE(simd::isaSupported(isa));
    EXPECT_EQ(simd::activeIsa(), isa);
    EXPECT_EQ(gemm::simdWidth(), simd::floatLanes(isa));
}

TEST(SimdResolve, FastModeResolves)
{
    using simd::FastMode;
    EXPECT_EQ(simd::resolveFastMode(nullptr), FastMode::Off);
    EXPECT_EQ(simd::resolveFastMode(""), FastMode::Off);
    EXPECT_EQ(simd::resolveFastMode("0"), FastMode::Off);
    EXPECT_EQ(simd::resolveFastMode("1"), FastMode::On);
    // Explicit requests pass through the env-resolving overload
    // untouched, whatever TIE_FAST says.
    EXPECT_EQ(simd::resolveFastMode(FastMode::Off), FastMode::Off);
    EXPECT_EQ(simd::resolveFastMode(FastMode::On), FastMode::On);
}

TEST(SimdResolve, FastModeMalformedIsFatal)
{
    EXPECT_EXIT(simd::resolveFastMode("2"),
                ::testing::ExitedWithCode(1), "must be 0 or 1");
    EXPECT_EXIT(simd::resolveFastMode("on"),
                ::testing::ExitedWithCode(1), "must be 0 or 1");
    EXPECT_EXIT(simd::resolveFastMode("true"),
                ::testing::ExitedWithCode(1), "must be 0 or 1");
    // The Env path applies the same strictness to the live variable
    // (set inside the death-test child only).
    EXPECT_EXIT(
        {
            setenv("TIE_FAST", "bogus", 1);
            simd::resolveFastMode(simd::FastMode::Env);
        },
        ::testing::ExitedWithCode(1), "must be 0 or 1");
}

TEST(SimdResolve, MaskAndLanesAreConsistent)
{
    EXPECT_TRUE(simd::supportedMask() & bit(Isa::Scalar));
    EXPECT_EQ(simd::floatLanes(Isa::Scalar), 1u);
    EXPECT_EQ(simd::doubleLanes(Isa::Scalar), 1u);
    EXPECT_EQ(simd::floatLanes(Isa::Avx2), 8u);
    EXPECT_EQ(simd::doubleLanes(Isa::Avx2), 4u);
    EXPECT_EQ(simd::floatLanes(Isa::Sse42), 4u);
    EXPECT_EQ(simd::fxpLanes(Isa::Neon), 4u);
    for (Isa isa : supportedIsas())
        EXPECT_STRNE(simd::isaName(isa), "");
}

// ---------------------------------------------------------------------
// Shared operands and shapes.
// ---------------------------------------------------------------------

template <typename T>
std::vector<T>
randomBuf(size_t count, Rng &rng)
{
    std::vector<T> out(count);
    for (auto &v : out)
        v = static_cast<T>(rng.uniform(-2.0, 2.0));
    return out;
}

// Shapes chosen to exercise full vectors, remainder columns for every
// lane width (8/4/1) and degenerate edges.
struct Shape
{
    size_t m, k, n;
};
const Shape kShapes[] = {
    {1, 1, 1},  {2, 3, 5},   {4, 8, 7},  {3, 16, 8},   {5, 7, 9},
    {8, 4, 16}, {2, 130, 33}, {16, 9, 64}, {1, 5, 257},
};

// ---------------------------------------------------------------------
// Packed-panel microkernel: the default path must be bit-identical to
// the unpacked scalar reference (simd::gemmRefF32/F64) for every ISA,
// shape, panel split and batch; TIE_FAST only bends f32 within the
// documented bound.
// ---------------------------------------------------------------------

template <typename T>
void
packedGemm(Isa isa, bool fast, size_t k, const T *pa, const T *b,
           size_t ldb, T *c, size_t ldc, size_t i0, size_t i1,
           size_t j0, size_t j1)
{
    if constexpr (std::is_same_v<T, float>)
        simd::gemmPackedF32(isa, fast, k, pa, b, ldb, c, ldc, i0, i1,
                            j0, j1);
    else
        simd::gemmPackedF64(isa, fast, k, pa, b, ldb, c, ldc, i0, i1,
                            j0, j1);
}

template <typename T>
void
checkPackedBitIdentity()
{
    Rng rng(0x9acc);
    for (const Shape &s : kShapes) {
        const auto a = randomBuf<T>(s.m * s.k, rng);
        const auto b = randomBuf<T>(s.k * s.n, rng);
        std::vector<T> ref(s.m * s.n, T(0));
        if constexpr (std::is_same_v<T, float>)
            simd::gemmRefF32(s.n, s.k, a.data(), b.data(), ref.data(),
                             0, s.m, 0, s.n);
        else
            simd::gemmRefF64(s.n, s.k, a.data(), b.data(), ref.data(),
                             0, s.m, 0, s.n);
        std::vector<T> pa(pack::packedAElems(s.m, s.k));
        pack::packA(s.m, s.k, a.data(), pa.data());
        for (Isa isa : supportedIsas()) {
            std::vector<T> c(s.m * s.n, T(0));
            packedGemm<T>(isa, false, s.k, pa.data(), b.data(), s.n,
                          c.data(), s.n, 0, s.m, 0, s.n);
            EXPECT_EQ(std::memcmp(c.data(), ref.data(),
                                  c.size() * sizeof(T)),
                      0)
                << simd::isaName(isa) << " " << s.m << "x" << s.k << "x"
                << s.n;
        }
    }
}

TEST(SimdPacked, F32BitIdenticalToScalarOnEveryIsa)
{
    checkPackedBitIdentity<float>();
}

TEST(SimdPacked, F64BitIdenticalToScalarOnEveryIsa)
{
    checkPackedBitIdentity<double>();
}

TEST(SimdPacked, UnalignedWindowsAndPanelSplitsMatchScalar)
{
    // Panel-aligned i0 with i1 ending mid-panel, plus column windows
    // off every lane boundary; nothing outside the window may move.
    Rng rng(0x9acd);
    const size_t m = 11, k = 13, n = 37; // 2 full panels + 3-row tail
    const auto a = randomBuf<float>(m * k, rng);
    const auto b = randomBuf<float>(k * n, rng);
    std::vector<float> pa(pack::packedAElems(m, k));
    pack::packA(m, k, a.data(), pa.data());
    for (size_t i0 : {size_t(0), size_t(4), size_t(8)}) {
        for (size_t i1 : {i0 + 1, i0 + 3, m}) {
            for (size_t j0 : {size_t(0), size_t(1), size_t(13)}) {
                const size_t j1 = n - 2;
                std::vector<float> ref(m * n, -7.0f), c(m * n, -7.0f);
                simd::gemmRefF32(n, k, a.data(), b.data(), ref.data(),
                                 i0, i1, j0, j1);
                for (Isa isa : supportedIsas()) {
                    std::fill(c.begin(), c.end(), -7.0f);
                    packedGemm<float>(isa, false, k, pa.data(), b.data(),
                                      n, c.data(), n, i0, i1, j0, j1);
                    EXPECT_EQ(std::memcmp(c.data(), ref.data(),
                                          c.size() * sizeof(float)),
                              0)
                        << simd::isaName(isa) << " i0=" << i0
                        << " i1=" << i1 << " j0=" << j0;
                }
            }
        }
    }
}

template <typename T>
void
checkMatmulMatchesRef(size_t m, size_t n, size_t k)
{
    Rng rng(0x9ace + m + n + k);
    const Matrix<T> a(m, k, randomBuf<T>(m * k, rng));
    const Matrix<T> b(k, n, randomBuf<T>(k * n, rng));
    std::vector<T> ref(m * n, T(0));
    if constexpr (std::is_same_v<T, float>)
        simd::gemmRefF32(n, k, a.data(), b.data(), ref.data(), 0, m, 0, n);
    else
        simd::gemmRefF64(n, k, a.data(), b.data(), ref.data(), 0, m, 0, n);
    const Matrix<T> c = matmul(a, b);
    ASSERT_EQ(c.size(), ref.size());
    EXPECT_EQ(std::memcmp(c.data(), ref.data(), ref.size() * sizeof(T)),
              0)
        << m << "x" << k << "x" << n;
}

TEST(SimdPacked, BlockedWrapperMatchesUnpacked)
{
    // The public matmul (per-call packA + gemmPackedBlocked, never the
    // fast path) against the unpacked scalar reference. The shapes
    // cover a partial last row panel, n = 1, k past one kDepthBlock,
    // and both sides of kParallelMinWork with row- and column-dominant
    // splits; the flags below keep that coverage from eroding.
    const Shape shapes[] = {
        {5, 7, 9},      {37, 300, 1},  {64, 64, 96},
        {17, 33, 1031}, {1031, 200, 1}, {6, 129, 64},
    };
    bool partial_panel = false, n1 = false, deep_k = false;
    bool serial = false, parallel = false;
    for (const Shape &s : shapes) {
        partial_panel |= s.m % pack::kRowPanel != 0;
        n1 |= s.n == 1;
        deep_k |= s.k > gemm::kDepthBlock;
        (s.m * s.n * s.k < gemm::kParallelMinWork ? serial : parallel) =
            true;
        checkMatmulMatchesRef<float>(s.m, s.n, s.k);
        checkMatmulMatchesRef<double>(s.m, s.n, s.k);
    }
    EXPECT_TRUE(partial_panel && n1 && deep_k && serial && parallel);
}

template <typename T>
void
checkPackedGatheredMatchesMaterialized(size_t batch)
{
    Rng rng(0x9acf + batch);
    const size_t m = 6, k = 12, cols_out = 21;
    const size_t n = cols_out * batch;
    const auto a = randomBuf<T>(m * k, rng);
    const auto v = randomBuf<T>(k * n, rng);
    std::vector<size_t> offset(k * cols_out);
    for (auto &o : offset)
        o = static_cast<size_t>(rng.intIn(0, k * cols_out - 1));
    gemm::GatherB g;
    g.offset = offset.data();
    g.cols_out = cols_out;
    g.block_stride = k * cols_out;
    g.batch = batch;

    // Reference: B materialized explicitly, through the scalar chain.
    std::vector<T> bmat(k * n);
    for (size_t kk = 0; kk < k; ++kk)
        for (size_t bb = 0; bb < batch; ++bb)
            for (size_t q = 0; q < cols_out; ++q)
                bmat[kk * n + bb * cols_out + q] =
                    v[offset[kk * cols_out + q] + bb * g.block_stride];
    std::vector<T> ref(m * n, T(0)), c(m * n, T(0));
    if constexpr (std::is_same_v<T, float>)
        simd::gemmRefF32(n, k, a.data(), bmat.data(), ref.data(), 0, m,
                         0, n);
    else
        simd::gemmRefF64(n, k, a.data(), bmat.data(), ref.data(), 0, m,
                         0, n);
    std::vector<T> pa(pack::packedAElems(m, k));
    pack::packA(m, k, a.data(), pa.data());
    std::vector<T> bscratch(k * std::min(n, gemm::kColBlock));
    gemm::gemmPackedGatheredBlocked(m, k, pa.data(), v.data(), g,
                                    c.data(), bscratch.data(), false);
    EXPECT_EQ(std::memcmp(c.data(), ref.data(), c.size() * sizeof(T)),
              0)
        << "batch=" << batch;
}

TEST(SimdPacked, GatheredMatchesUnpackedGatheredForEveryBatch)
{
    // batch = 64 pushes n past kColBlock, exercising the serial panel
    // loop and the scratch reuse across panels.
    for (size_t batch : {size_t(1), size_t(7), size_t(64)}) {
        checkPackedGatheredMatchesMaterialized<float>(batch);
        checkPackedGatheredMatchesMaterialized<double>(batch);
    }
}

TEST(SimdPacked, FastModeF32WithinDocumentedBound)
{
    // TIE_FAST accuracy contract (docs/performance.md): per output
    // element, |fast - exact| is bounded by the classic dot-product
    // error gamma_k * sum(|a| |b|) with gamma_k = k*eps / (1 - k*eps),
    // eps = 2^-24, times a small safety factor. Checked against an
    // f64 reference so the bound covers both the exact and the fused
    // chain.
    Rng rng(0xfa57);
    const size_t m = 8, k = 512, n = 64;
    const auto a = randomBuf<float>(m * k, rng);
    const auto b = randomBuf<float>(k * n, rng);
    std::vector<double> refd(m * n, 0.0), absd(m * n, 0.0);
    for (size_t i = 0; i < m; ++i) {
        for (size_t j = 0; j < n; ++j) {
            double acc = 0.0, mag = 0.0;
            for (size_t kk = 0; kk < k; ++kk) {
                const double p = double(a[i * k + kk]) *
                                 double(b[kk * n + j]);
                acc += p;
                mag += std::fabs(p);
            }
            refd[i * n + j] = acc;
            absd[i * n + j] = mag;
        }
    }
    const double eps = std::ldexp(1.0, -24);
    const double gamma = k * eps / (1.0 - k * eps);
    std::vector<float> pa(pack::packedAElems(m, k));
    pack::packA(m, k, a.data(), pa.data());
    for (Isa isa : supportedIsas()) {
        for (bool fast : {false, true}) {
            std::vector<float> c(m * n, 0.0f);
            simd::gemmPackedF32(isa, fast, k, pa.data(), b.data(), n,
                                c.data(), n, 0, m, 0, n);
            for (size_t e = 0; e < m * n; ++e) {
                const double bound = 4.0 * gamma * absd[e] +
                                     std::fabs(refd[e]) * 4.0 * eps;
                EXPECT_LE(std::fabs(double(c[e]) - refd[e]), bound)
                    << simd::isaName(isa) << " fast=" << fast
                    << " elem " << e;
            }
        }
    }
}

TEST(SimdPacked, FastModeNeverChangesF64)
{
    // f64 has no fast path: fast=true must be bit-identical to
    // fast=false on every ISA.
    Rng rng(0xfa58);
    const size_t m = 7, k = 33, n = 19;
    const auto a = randomBuf<double>(m * k, rng);
    const auto b = randomBuf<double>(k * n, rng);
    std::vector<double> pa(pack::packedAElems(m, k));
    pack::packA(m, k, a.data(), pa.data());
    for (Isa isa : supportedIsas()) {
        std::vector<double> exact(m * n, 0.0), fast(m * n, 0.0);
        simd::gemmPackedF64(isa, false, k, pa.data(), b.data(), n,
                            exact.data(), n, 0, m, 0, n);
        simd::gemmPackedF64(isa, true, k, pa.data(), b.data(), n,
                            fast.data(), n, 0, m, 0, n);
        EXPECT_EQ(std::memcmp(exact.data(), fast.data(),
                              exact.size() * sizeof(double)),
                  0)
            << simd::isaName(isa);
    }
}

// ---------------------------------------------------------------------
// Fixed-point MAC chain bit-identity.
// ---------------------------------------------------------------------

std::vector<int16_t>
randomI16(size_t count, Rng &rng, int16_t lo = -32768, int16_t hi = 32767)
{
    std::vector<int16_t> out(count);
    for (auto &v : out)
        v = static_cast<int16_t>(rng.intIn(lo, hi));
    return out;
}

void
checkFxpBitIdentity(const MacFormat &fmt, uint64_t seed)
{
    Rng rng(seed);
    for (const Shape &s : kShapes) {
        const auto w = randomI16(s.m * s.k, rng);
        const auto x = randomI16(s.k * s.n, rng);
        std::vector<int16_t> ref(s.m * s.n, 0);
        fxpBlock(Isa::Scalar, s.k, w.data(), x.data(), s.n, fmt,
                 ref.data(), s.n, 0, s.m, 0, s.n);
        for (Isa isa : supportedIsas()) {
            std::vector<int16_t> out(s.m * s.n, 0);
            fxpBlock(isa, s.k, w.data(), x.data(), s.n, fmt, out.data(),
                     s.n, 0, s.m, 0, s.n);
            EXPECT_EQ(out, ref)
                << simd::isaName(isa) << " " << s.m << "x" << s.k << "x"
                << s.n;
        }
    }
}

TEST(SimdFxp, DefaultFormatBitIdenticalOnEveryIsa)
{
    MacFormat fmt; // the TIE datapath: 24-bit acc, 8-bit product shift
    ASSERT_TRUE(fxpSimdEligible(fmt));
    checkFxpBitIdentity(fmt, 0xf1);
}

TEST(SimdFxp, SaturatingFormatsBitIdenticalOnEveryIsa)
{
    // Narrow accumulator + no product shift: saturation fires
    // constantly, the harshest test of the lane-wise clamp chain.
    MacFormat fmt;
    fmt.acc_bits = 12;
    fmt.product_shift = 0;
    fmt.act_out = FxpFormat{8, 2};
    ASSERT_TRUE(fxpSimdEligible(fmt));
    checkFxpBitIdentity(fmt, 0xf2);

    // Widening requantize shift (negative rshift) is ineligible and
    // must still be bit-identical via the scalar fallback.
    MacFormat widen;
    widen.act_out = FxpFormat{16, 14};
    ASSERT_LT(widen.accFracBits(), widen.act_out.frac_bits);
    EXPECT_FALSE(fxpSimdEligible(widen));
    checkFxpBitIdentity(widen, 0xf3);

    // Widest still-eligible accumulator.
    MacFormat wide;
    wide.acc_bits = 30;
    ASSERT_TRUE(fxpSimdEligible(wide));
    checkFxpBitIdentity(wide, 0xf4);
}

TEST(SimdFxp, UnalignedColumnWindowMatchesScalar)
{
    MacFormat fmt;
    Rng rng(0xaced);
    const size_t m = 2, k = 9, n = 29;
    const auto w = randomI16(m * k, rng);
    const auto x = randomI16(k * n, rng);
    for (size_t j0 : {size_t(1), size_t(3), size_t(11)}) {
        const size_t j1 = n - 1;
        std::vector<int16_t> ref(m * n, 99), out(m * n, 99);
        fxpBlock(Isa::Scalar, k, w.data(), x.data(), n, fmt, ref.data(),
                 n, 0, m, j0, j1);
        for (Isa isa : supportedIsas()) {
            std::fill(out.begin(), out.end(), int16_t(99));
            fxpBlock(isa, k, w.data(), x.data(), n, fmt, out.data(), n,
                     0, m, j0, j1);
            EXPECT_EQ(out, ref) << simd::isaName(isa) << " j0=" << j0;
        }
    }
}

TEST(SimdFxp, GatheredMatchesMaterializedOnEveryIsa)
{
    // The fused fxp stage gathers kColBlock-wide panels of the permuted
    // operand (gemm::gatheredPanels) and runs the dense fxpBlock over
    // them. n > kColBlock and n % kColBlock != 0, so the serial panel
    // loop, the scratch reuse across panels and a partial last panel
    // all run. The widening format takes the scalar chain on every ISA.
    Rng rng(0x9a7);
    const size_t m = 19, k = 10, cols_out = 13, batch = 24;
    const size_t n = cols_out * batch;
    ASSERT_GT(n, gemm::kColBlock);
    ASSERT_NE(n % gemm::kColBlock, 0u);
    const auto w = randomI16(m * k, rng);
    const auto v = randomI16(k * n, rng);

    std::vector<size_t> offset(k * cols_out);
    for (auto &o : offset)
        o = static_cast<size_t>(rng.intIn(0, k * cols_out - 1));
    gemm::GatherB g;
    g.offset = offset.data();
    g.cols_out = cols_out;
    g.block_stride = k * cols_out;
    g.batch = batch;

    std::vector<int16_t> xmat(k * n);
    for (size_t kk = 0; kk < k; ++kk)
        for (size_t bb = 0; bb < batch; ++bb)
            for (size_t q = 0; q < cols_out; ++q)
                xmat[kk * n + bb * cols_out + q] =
                    v[offset[kk * cols_out + q] + bb * g.block_stride];

    MacFormat eligible;
    MacFormat widen;
    widen.act_out = FxpFormat{16, 14};
    ASSERT_TRUE(fxpSimdEligible(eligible));
    ASSERT_FALSE(fxpSimdEligible(widen));
    std::vector<int16_t> bscratch(k * gemm::kColBlock);
    for (const MacFormat *fmt : {&eligible, &widen}) {
        std::vector<int16_t> ref(m * n, 0);
        fxpBlock(Isa::Scalar, k, w.data(), xmat.data(), n, *fmt,
                 ref.data(), n, 0, m, 0, n);

        // The public entry, on the active ISA.
        std::vector<int16_t> out(m * n, 0);
        fxpMatmulGathered(m, k, w.data(), v.data(), g, *fmt, out.data(),
                          bscratch.data());
        EXPECT_EQ(out, ref) << "fxpMatmulGathered, eligible="
                            << (fmt == &eligible);

        // The same driver with each supported ISA's kernel.
        for (Isa isa : supportedIsas()) {
            std::fill(out.begin(), out.end(), int16_t(0));
            gemm::gatheredPanels(
                m, k, v.data(), g, bscratch.data(),
                [&](const int16_t *panel, size_t pw, size_t p0,
                    size_t i0, size_t i1) {
                    fxpBlock(isa, k, w.data(), panel, pw, *fmt,
                             out.data() + p0, n, i0, i1, 0, pw);
                });
            EXPECT_EQ(out, ref) << simd::isaName(isa) << " eligible="
                                << (fmt == &eligible);
        }
    }
}

TEST(SimdFxp, PublicMatmulMatchesPerElementChain)
{
    // The public entry point (whatever ISA is active) must equal the
    // documented per-element scalar chain computed with the public
    // scalar helpers.
    MacFormat fmt;
    Rng rng(0x77);
    const size_t m = 5, k = 17, n = 23;
    Matrix<int16_t> w(m, k), x(k, n);
    for (auto &v : w.flat())
        v = static_cast<int16_t>(rng.intIn(-32768, 32767));
    for (auto &v : x.flat())
        v = static_cast<int16_t>(rng.intIn(-32768, 32767));
    Matrix<int16_t> out = fxpMatmul(w, x, fmt);
    for (size_t i = 0; i < m; ++i) {
        for (size_t j = 0; j < n; ++j) {
            int64_t acc = 0;
            for (size_t kk = 0; kk < k; ++kk)
                accumulate(acc, macProduct(w.at(i, kk), x.at(kk, j), fmt),
                           fmt.acc_bits);
            ASSERT_EQ(out.at(i, j), requantizeAcc(acc, fmt))
                << i << "," << j;
        }
    }
}

TEST(SimdFxp, MacCountersNameTheChainThatRan)
{
    // fxpBlock drops to the scalar chain for an ineligible format even
    // on a SIMD ISA; fxp.simd_macs / fxp.scalar_macs make that visible.
    // Under TIE_SIMD=scalar every MAC is a scalar MAC.
    const size_t m = 5, k = 17, n = 23;
    Rng rng(0x78);
    Matrix<int16_t> w(m, k), x(k, n);
    for (auto &v : w.flat())
        v = static_cast<int16_t>(rng.intIn(-32768, 32767));
    for (auto &v : x.flat())
        v = static_cast<int16_t>(rng.intIn(-32768, 32767));
    std::vector<size_t> offset(k * n);
    for (size_t e = 0; e < offset.size(); ++e)
        offset[e] = e;
    gemm::GatherB g;
    g.offset = offset.data();
    g.cols_out = n;
    g.block_stride = k * n;
    g.batch = 1;
    std::vector<int16_t> out(m * n), bscratch(k * gemm::kColBlock);

    MacFormat eligible;
    MacFormat widen;
    widen.act_out = FxpFormat{16, 14};
    ASSERT_TRUE(fxpSimdEligible(eligible));
    ASSERT_FALSE(fxpSimdEligible(widen));
    const bool simd_isa = simd::activeIsa() != Isa::Scalar;

    obs::StatRegistry &reg = obs::StatRegistry::instance();
    obs::setEnabled(true);
    for (const MacFormat *fmt : {&eligible, &widen}) {
        const bool lanes = simd_isa && fmt == &eligible;
        reg.resetAll();
        fxpMatmul(w, x, *fmt);
        fxpMatmulGathered(m, k, w.data(), x.data(), g, *fmt, out.data(),
                          bscratch.data());
        const uint64_t macs = 2 * m * k * n;
        EXPECT_EQ(reg.counter("fxp.simd_macs").value(), lanes ? macs : 0)
            << "eligible=" << (fmt == &eligible);
        EXPECT_EQ(reg.counter("fxp.scalar_macs").value(),
                  lanes ? 0 : macs)
            << "eligible=" << (fmt == &eligible);
    }
    obs::setEnabled(false);
    reg.resetAll();
}

} // namespace
} // namespace tie
