// perfbench: one workload of the NASSC end-to-end benchmark per process.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--quick]
//
// Prints the workload's metrics by name and unit, the correctness
// verdict, and as its last line one JSON object.  perfbench/run.py
// builds this binary and runs it; see perfbench/README.md.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.h"
#include "workloads.h"

using namespace perfbench;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload table1_montreal|heavy_hex_scale|"
                 "serve_repeat_mix --seed N --seconds S --trace 0|1 "
                 "[--quick]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const bool has_value = i + 1 < argc;
        if (!std::strcmp(argv[i], "--workload") && has_value)
            args.workload = argv[++i];
        else if (!std::strcmp(argv[i], "--seed") && has_value)
            args.seed = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
        else if (!std::strcmp(argv[i], "--seconds") && has_value)
            args.seconds = std::atof(argv[++i]);
        else if (!std::strcmp(argv[i], "--trace") && has_value)
            args.trace = std::atoi(argv[++i]) != 0;
        else if (!std::strcmp(argv[i], "--quick"))
            args.quick = true;
        else
            return usage();
    }
    if (args.seconds <= 0.0)
        return usage();

    Report report(args.trace);
    try {
        if (args.workload == "table1_montreal" ||
            args.workload == "heavy_hex_scale")
            run_compile_workload(args, report);
        else if (args.workload == "serve_repeat_mix")
            run_serve_workload(args, report);
        else
            return usage();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     args.workload.c_str(), e.what());
        return 1;
    }
    return report.print() ? 0 : 1;
}
