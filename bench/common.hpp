/**
 * @file
 * Shared helpers for the experiment harnesses: aligned table printing
 * and the canonical baseline/optimized runner wiring used by the
 * figure/table reproductions (see DESIGN.md §4 for the experiment
 * index and EXPERIMENTS.md for paper-vs-measured numbers).
 */

#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "core/mtpu.hpp"
#include "support/stats.hpp"
#include "workload/workload.hpp"

namespace mtpu::bench {

/** Simple fixed-width table printer. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers)
        : headers_(std::move(headers))
    {}

    void
    row(std::vector<std::string> cells)
    {
        rows_.push_back(std::move(cells));
    }

    void
    print() const
    {
        std::vector<std::size_t> width(headers_.size());
        for (std::size_t c = 0; c < headers_.size(); ++c)
            width[c] = headers_[c].size();
        for (const auto &row : rows_) {
            for (std::size_t c = 0; c < row.size() && c < width.size();
                 ++c) {
                width[c] = std::max(width[c], row[c].size());
            }
        }
        auto print_row = [&width](const std::vector<std::string> &cells) {
            for (std::size_t c = 0; c < cells.size(); ++c)
                std::printf("%-*s  ", int(width[c]), cells[c].c_str());
            std::printf("\n");
        };
        print_row(headers_);
        std::size_t total = 0;
        for (std::size_t w : width)
            total += w + 2;
        std::printf("%s\n", std::string(total, '-').c_str());
        for (const auto &row : rows_)
            print_row(row);
    }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Print a banner naming the experiment. */
inline void
banner(const char *title)
{
    std::printf("\n=== %s ===\n\n", title);
}

/** The TOP8 contract names in Table 6 order. */
inline const std::vector<std::string> &
top8Names()
{
    static const std::vector<std::string> names = {
        "TetherUSD",      "UniswapV2Router02", "FiatTokenProxy",
        "OpenSea",        "LinkToken",         "SwapRouter",
        "Dai",            "MainchainGatewayProxy",
    };
    return names;
}

/** Cycles to execute @p block on a fresh scalar (no-ILP) single PU. */
inline std::uint64_t
scalarBaselineCycles(const workload::BlockRun &block,
                     bool exec_only = false)
{
    arch::MtpuConfig cfg = arch::MtpuConfig::baseline();
    arch::StateBuffer sb(cfg.stateBufferEntries);
    arch::PuModel pu(cfg, &sb);
    std::uint64_t total = 0;
    for (const auto &rec : block.txs) {
        auto t = pu.execute(rec.trace);
        total += exec_only ? t.execCycles : t.cycles;
    }
    return total;
}

} // namespace mtpu::bench
