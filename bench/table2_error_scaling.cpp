/**
 * @file
 * Table 2: sensitivity of VQA+VQM to error-rate scaling on bv-16.
 * Rows: (1x, base CoV), (10x lower, base CoV), (10x lower, 2x
 * CoV). Paper values: 1.43x, 2.02x, 2.59x.
 *
 * Each row is evaluated on a fresh synthetic machine drawn with the
 * row's error statistics (mean scaled, relative variation per the
 * CoV column), with coherence improving alongside gate errors
 * ("as technology improves", Section 6.6).
 *
 * Note on the expected shape: when *every* error source shrinks by
 * s, each policy's PST is raised to the power s, so the relative
 * benefit compresses toward 1 as errors fall
 * (benefit' ~ benefit^s). The reproducible trend is therefore the
 * *CoV direction*: at a fixed error level, doubling the relative
 * variation increases the benefit — which is the paper's core
 * claim that "variation may still persist even at lower error
 * rates, meaning our proposal can still be effective".
 */
#include "bench_util.hpp"

#include "common/table.hpp"
#include "workloads/workloads.hpp"

int
main()
{
    using namespace vaq;
    bench::printHeader(
        "Table 2", "Sensitivity of VQA+VQM to Error Scaling",
        "bv-16 on fresh synthetic IBM-Q20 archives with scaled "
        "error statistics.");

    const auto machine = topology::ibmQ20Tokyo();
    const core::Mapper baseline =
        core::makeMapper({.name = "baseline"});
    const core::Mapper vqaVqm = core::makeMapper({.name = "vqa+vqm"});
    const auto bv = workloads::bernsteinVazirani(16);

    struct Row
    {
        const char *label;
        const char *cov;
        double errScale;
        double covMult;
        const char *paper;
    };
    const Row rows[] = {
        {"1x", "Cov-Base", 1.0, 1.0, "1.43x"},
        {"10x lower", "Cov-Base", 0.1, 1.0, "2.02x"},
        {"10x lower", "2*Cov-Base", 0.1, 2.0, "2.59x"},
    };

    TextTable table({"Benchmark", "Average Error-Rate",
                     "Covariation of Error Rate",
                     "Relative PST Benefit (VQA+VQM)",
                     "Paper"});
    for (const Row &row : rows) {
        calibration::SyntheticParams params;
        params.err2qMean *= row.errScale;
        params.err2qMin *= row.errScale;
        params.err2qMax *= row.errScale;
        params.linkPersonalityMin *= row.errScale;
        params.linkPersonalityMax *= row.errScale;
        params.err1qMedian *= row.errScale;
        params.err1qMin *= row.errScale;
        params.err1qMax *= row.errScale;
        params.readoutMedian *= row.errScale;
        params.readoutMin *= row.errScale;
        params.readoutMax *= row.errScale;
        params.t1MeanUs /= row.errScale;
        params.t1MaxUs /= row.errScale;
        params.t2MeanUs /= row.errScale;
        params.t2MaxUs /= row.errScale;
        // Relative variation: widen both the per-link lottery and
        // the spatial gradient, and open the clamp window so the
        // widened distribution is not truncated.
        params.err2qSigmaLog *= row.covMult;
        params.peripheryBiasLog *= row.covMult;
        params.err2qMax *= row.covMult;
        params.linkPersonalityMax *= row.covMult;
        params.err2qMin /= row.covMult;
        params.linkPersonalityMin /= row.covMult;

        calibration::SyntheticSource source(machine, params,
                                            bench::kArchiveSeed);
        const calibration::Snapshot snap =
            source.series(bench::kArchiveCycles).averaged();

        const double base = bench::analyticPstOf(baseline, bv,
                                                 machine, snap);
        const double aware = bench::analyticPstOf(vqaVqm, bv,
                                                  machine, snap);
        table.addRow({"bv-16", row.label, row.cov,
                      formatDouble(aware / base, 2) + "x",
                      row.paper});
    }
    std::cout << table.render() << "\n";
    std::cout << "Expected shape: benefit > 1 at every error "
                 "level, and the 2*CoV row beats the\nsame-CoV "
                 "row. (Absolute values compress toward 1 at "
                 "lower error rates because\nrelative PST scales "
                 "as benefit^s -- see the header comment; "
                 "EXPERIMENTS.md\ndiscusses the difference from "
                 "the paper's published absolutes.)\n";
    return 0;
}
