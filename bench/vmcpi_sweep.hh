/**
 * @file
 * Shared implementation of the Figure 6/7 VMCPI sweeps: VMCPI as a
 * function of L1 size, L2 size, and L1/L2 linesizes, one table per
 * (VM system, L2 size). Figures 6 and 7 differ only in workload.
 *
 * The whole grid is declared as one SweepSpec and executed by the
 * SweepRunner (parallel across cells with --jobs); the tables are
 * then formatted from the grid-ordered SweepResults, so output is
 * identical at any job count.
 */

#ifndef VMSIM_BENCH_VMCPI_SWEEP_HH
#define VMSIM_BENCH_VMCPI_SWEEP_HH

#include "bench_common.hh"

namespace vmsim::bench
{

inline int
runVmcpiSweep(const std::string &figure, const std::string &workload,
              int argc, char **argv)
{
    BenchOptions opts = parseBenchOptions(argc, argv);

    banner(figure + ": VMCPI vs cache organization - " + workload);
    std::cout << "instructions/point=" << opts.instructions
              << " warmup=" << opts.resolvedWarmup()
              << (opts.full ? " (full paper grid)" : " (reduced grid)")
              << "\n\n";

    SweepSpec spec = paperSweep(opts);
    spec.systems(paperVmSystems())
        .workloads({workload})
        .l1Sizes(paperL1Sizes(opts.full))
        .l2Sizes(paperL2Sizes(opts.full))
        .lineSizes(paperLineSizes(opts.full));
    SweepResults res = runSweep(opts, spec);

    const auto &l1_sizes = spec.l1Axis();
    const auto &l2_sizes = spec.l2Axis();
    const auto &lines = spec.lineAxis();

    for (std::size_t ki = 0; ki < spec.systemAxis().size(); ++ki) {
        for (std::size_t l2i = 0; l2i < l2_sizes.size(); ++l2i) {
            TextTable table;
            std::vector<std::string> header = {"L1/side"};
            for (auto [a, b] : lines)
                header.push_back(lineLabel(a, b) + "B");
            table.setHeader(header);

            for (std::size_t l1i = 0; l1i < l1_sizes.size(); ++l1i) {
                std::vector<std::string> row = {
                    sizeLabel(l1_sizes[l1i])};
                for (std::size_t li = 0; li < lines.size(); ++li) {
                    double v = res.meanMetric({.system = ki,
                                               .l1 = l1i,
                                               .l2 = l2i,
                                               .line = li},
                                              vmcpiOf);
                    row.push_back(TextTable::fmt(v, 5));
                }
                table.addRow(row);
            }
            std::cout << kindName(spec.systemAxis()[ki]) << " - "
                      << sizeLabel(l2_sizes[l2i])
                      << "B L2 cache (VMCPI)\n";
            emit(table, opts);
        }
    }
    return 0;
}

} // namespace vmsim::bench

#endif // VMSIM_BENCH_VMCPI_SWEEP_HH
