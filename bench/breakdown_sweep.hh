/**
 * @file
 * Shared implementation of the Figure 8/9 VMCPI break-downs: for the
 * paper's featured 64/128-byte L1/L2 linesizes, every VMCPI component
 * (Table 3 tags) as a function of L1 size, one table per (VM system,
 * L2 size). Figures 8 and 9 differ only in workload.
 *
 * Declared as one SweepSpec over (system x L1 x L2) and executed by
 * the SweepRunner; linesizes stay at the base config's 64/128.
 */

#ifndef VMSIM_BENCH_BREAKDOWN_SWEEP_HH
#define VMSIM_BENCH_BREAKDOWN_SWEEP_HH

#include "bench_common.hh"

namespace vmsim::bench
{

inline int
runBreakdownSweep(const std::string &figure, const std::string &workload,
                  int argc, char **argv)
{
    BenchOptions opts = parseBenchOptions(argc, argv);

    banner(figure + ": VMCPI break-downs (64/128-byte L1/L2 linesizes) "
                    "- " +
           workload);
    std::cout << "instructions/point=" << opts.instructions
              << " warmup=" << opts.resolvedWarmup() << "\n\n";

    SweepSpec spec = paperSweep(opts);
    spec.systems(paperVmSystems())
        .workloads({workload})
        .l1Sizes(paperL1Sizes(opts.full))
        .l2Sizes(paperL2Sizes(opts.full));
    SweepResults res = runSweep(opts, spec);

    const auto &l1_sizes = spec.l1Axis();
    const auto &l2_sizes = spec.l2Axis();

    for (std::size_t ki = 0; ki < spec.systemAxis().size(); ++ki) {
        for (std::size_t l2i = 0; l2i < l2_sizes.size(); ++l2i) {
            TextTable table;
            table.setHeader({"L1/side", "uhandler", "upte-L2",
                             "upte-MEM", "khandler", "kpte-L2",
                             "kpte-MEM", "rhandler", "rpte-L2",
                             "rpte-MEM", "handler-L2", "handler-MEM",
                             "total"});
            for (std::size_t l1i = 0; l1i < l1_sizes.size(); ++l1i) {
                CellIndex idx{.system = ki, .l1 = l1i, .l2 = l2i};
                std::size_t ncomp =
                    res.at(idx).vmcpiBreakdown().components().size();
                std::vector<std::string> row = {
                    sizeLabel(l1_sizes[l1i])};
                for (std::size_t c = 0; c < ncomp; ++c) {
                    double v = res.meanMetric(
                        idx, [c](const Results &r) {
                            return r.vmcpiBreakdown()
                                .components()[c]
                                .second;
                        });
                    row.push_back(TextTable::fmt(v, 5));
                }
                row.push_back(TextTable::fmt(
                    res.meanMetric(idx,
                                   [](const Results &r) {
                                       return r.vmcpiBreakdown()
                                           .total();
                                   }),
                    5));
                table.addRow(row);
            }
            std::cout << kindName(spec.systemAxis()[ki]) << " - "
                      << sizeLabel(l2_sizes[l2i])
                      << "B L2 cache (VMCPI components)\n";
            emit(table, opts);
        }
    }
    return 0;
}

} // namespace vmsim::bench

#endif // VMSIM_BENCH_BREAKDOWN_SWEEP_HH
