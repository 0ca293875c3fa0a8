#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "common.h"

namespace perfbench {

/** table1_montreal and heavy_hex_scale (compile_workload.cc). */
void run_compile_workload(const Args &args, Report &report);

/** serve_repeat_mix (serve_workload.cc). */
void run_serve_workload(const Args &args, Report &report);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
