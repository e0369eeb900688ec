#include "arch/weight_sram.hh"

#include "tt/cost_model.hh"

namespace tie {

WeightSram::WeightSram(size_t capacity_bytes, size_t n_mac)
    : n_mac_(n_mac), bank_(capacity_bytes / 2), fetch_buf_(n_mac, 0)
{
    TIE_CHECK_ARG(n_mac >= 1, "weight SRAM needs n_mac >= 1");
}

void
WeightSram::loadLayer(const TtMatrixFxp &tt)
{
    const size_t dd = tt.config.d();
    core_offset_.assign(dd, 0);
    core_rows_.assign(dd, 0);
    core_cols_.assign(dd, 0);
    core_row_blocks_.assign(dd, 0);

    const size_t words = weightSramWords(tt.config, n_mac_);
    TIE_CHECK_ARG(words <= bank_.words(),
                  "layer needs ", words * 2, " B of weight SRAM but only ",
                  bank_.words() * 2, " B are available — increase "
                  "weight_sram_bytes or reduce TT ranks");
    size_t offset = 0;
    for (size_t h = 1; h <= dd; ++h) {
        const auto &g = tt.cores[h - 1];
        const size_t blocks = (g.rows() + n_mac_ - 1) / n_mac_;
        core_offset_[h - 1] = offset;
        core_rows_[h - 1] = g.rows();
        core_cols_[h - 1] = g.cols();
        core_row_blocks_[h - 1] = blocks;
        offset += blocks * g.cols() * n_mac_;
    }
    words_used_ = words;

    bank_.clear();
    for (size_t h = 1; h <= dd; ++h) {
        const auto &g = tt.cores[h - 1];
        for (size_t rb = 0; rb < core_row_blocks_[h - 1]; ++rb) {
            for (size_t k = 0; k < g.cols(); ++k) {
                const size_t base = addressOf(h, rb, k);
                for (size_t i = 0; i < n_mac_; ++i) {
                    const size_t row = rb * n_mac_ + i;
                    const int16_t v =
                        row < g.rows() ? g(row, k) : int16_t(0);
                    bank_.write(base + i, v);
                }
            }
        }
    }
    bank_.resetCounters();
}

size_t
WeightSram::addressOf(size_t h, size_t rb, size_t k) const
{
    TIE_REQUIRE(h >= 1 && h <= core_offset_.size(),
                "weight SRAM core index out of range");
    TIE_REQUIRE(rb < core_row_blocks_[h - 1] && k < core_cols_[h - 1],
                "weight SRAM block/column out of range");
    return core_offset_[h - 1] +
           (rb * core_cols_[h - 1] + k) * n_mac_;
}

const std::vector<int16_t> &
WeightSram::readColumn(size_t h, size_t rb, size_t k)
{
    const size_t base = addressOf(h, rb, k);
    for (size_t i = 0; i < n_mac_; ++i)
        fetch_buf_[i] = bank_.read(base + i);
    word_reads_ += n_mac_;
    return fetch_buf_;
}

} // namespace tie
