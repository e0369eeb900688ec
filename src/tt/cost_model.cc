#include "tt/cost_model.hh"

#include <algorithm>

namespace tie {

size_t
multNaive(const TtLayerConfig &cfg)
{
    size_t rsum = 0;
    for (size_t i = 1; i <= cfg.d(); ++i)
        rsum += cfg.r[i] * cfg.r[i - 1];
    return cfg.outSize() * cfg.inSize() * rsum;
}

size_t
multTheoreticalMin(const TtLayerConfig &cfg)
{
    const size_t dd = cfg.d();
    size_t total = 0;
    for (size_t l = 1; l <= dd; ++l) {
        // (m_l - 1) * prod_{j>l} m_j
        size_t outer = (cfg.m[l - 1] - 1) * cfg.mSuffixProd(l);
        // sum_{i<=l} r_i r_{i-1} prod_{t<=i} n_t
        size_t inner = 0;
        size_t nprod = 1;
        for (size_t i = 1; i <= l; ++i) {
            nprod *= cfg.n[i - 1];
            inner += cfg.r[i] * cfg.r[i - 1] * nprod;
        }
        total += outer * inner;
    }
    return total;
}

std::vector<size_t>
multCompactPerStage(const TtLayerConfig &cfg)
{
    std::vector<size_t> per;
    per.reserve(cfg.d());
    for (size_t h = 1; h <= cfg.d(); ++h)
        per.push_back(cfg.coreRows(h) * cfg.coreCols(h) *
                      cfg.stageCols(h));
    return per;
}

size_t
multCompact(const TtLayerConfig &cfg)
{
    size_t total = 0;
    for (size_t v : multCompactPerStage(cfg))
        total += v;
    return total;
}

size_t
multPartialParallel(const TtLayerConfig &cfg)
{
    const size_t dd = cfg.d();
    const size_t md = cfg.m[dd - 1];
    const size_t cols = cfg.stageCols(dd);

    // Shared stage-d GEMM.
    size_t total = cfg.coreRows(dd) * cfg.coreCols(dd) * cols;

    // Remaining chains: for each (i_1..i_{d-1}) x (j_1..j_{d-1})
    // column, d-1 slice multiplications of cost r_{k-1} r_k m_d.
    size_t chain = 0;
    for (size_t k = 1; k <= dd - 1; ++k)
        chain += cfg.r[k - 1] * cfg.r[k] * md;

    size_t outer = 1;
    for (size_t k = 1; k <= dd - 1; ++k)
        outer *= cfg.m[k - 1];

    total += outer * cols * chain;
    return total;
}

size_t
workingBufferElems(const TtLayerConfig &cfg)
{
    // Input operand X' plus every stage output V_h.
    size_t peak = cfg.inSize();
    for (size_t h = cfg.d(); h >= 1; --h)
        peak = std::max(peak, cfg.coreRows(h) * cfg.stageCols(h));
    return peak;
}

size_t
weightSramWords(const TtLayerConfig &cfg, size_t n_mac)
{
    size_t words = 0;
    for (size_t h = 1; h <= cfg.d(); ++h) {
        const size_t blocks = (cfg.coreRows(h) + n_mac - 1) / n_mac;
        words += blocks * cfg.coreCols(h) * n_mac;
    }
    return words;
}

size_t
multDense(const TtLayerConfig &cfg)
{
    return cfg.outSize() * cfg.inSize();
}

size_t
weightAccessesNaive(const TtLayerConfig &cfg)
{
    return multNaive(cfg);
}

size_t
weightAccessesCompactIdeal(const TtLayerConfig &cfg)
{
    return cfg.ttParamCount();
}

size_t
weightAccessesScheduled(const TtLayerConfig &cfg, size_t n_pe,
                        size_t n_mac)
{
    size_t total = 0;
    for (size_t h = cfg.d(); h >= 1; --h) {
        const size_t rblocks = (cfg.coreRows(h) + n_mac - 1) / n_mac;
        const size_t cblocks = (cfg.stageCols(h) + n_pe - 1) / n_pe;
        total += rblocks * cblocks * cfg.coreCols(h) * n_mac;
    }
    return total;
}

} // namespace tie
