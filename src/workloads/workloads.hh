/**
 * @file
 * Workload suite: RISC-V baremetal kernels written against the
 * ProgramBuilder DSL.
 *
 * Three families, mirroring the paper's evaluation (Table III):
 *  - "micro": riscv-tests-style microbenchmarks (vvadd, mm, memcpy,
 *    mergesort, qsort, rsort, towers, spmv, pointer-chase,
 *    icache-stress) plus the branch-inversion case-study pair
 *    (brmiss / brmiss-inv).
 *  - "composite": CoreMark-like and Dhrystone-like kernels; the
 *    CoreMark-like kernel has scheduled / unscheduled variants for
 *    the instruction-scheduling case study (identical instruction
 *    counts, different ordering).
 *  - "spec": proxies for the ten SPEC CPU2017 intrate benchmarks.
 *    Each proxy reproduces its benchmark's *bottleneck structure*
 *    (mcf -> out-of-L2 pointer chasing, x264 -> high-ILP arithmetic,
 *    xalancbmk -> pointer-heavy tree traversal, ...), which is what
 *    the TMA class shapes in Fig. 7 depend on.
 *
 * Every workload self-checks its output and exits with code 0 on
 * success, so timing runs double as correctness tests.
 */

#ifndef ICICLE_WORKLOADS_WORKLOADS_HH
#define ICICLE_WORKLOADS_WORKLOADS_HH

#include <functional>
#include <string>
#include <vector>

#include "isa/program.hh"

namespace icicle
{

/** Registry entry for one workload. */
struct WorkloadInfo
{
    std::string name;
    std::string suite; ///< "micro", "composite", or "spec"
    std::string description;
    std::function<Program()> build;
};

/** All registered workloads. */
const std::vector<WorkloadInfo> &allWorkloads();

/**
 * Registry entry for a workload name, without building it (cheap name
 * validation); fatal() if unknown.
 */
const WorkloadInfo &findWorkload(const std::string &name);

/** Build a workload by name; fatal() if unknown. */
Program buildWorkload(const std::string &name);

/** Names, optionally filtered by suite. */
std::vector<std::string> workloadNames(const std::string &suite = "");

namespace workloads
{

// ---- micro ----------------------------------------------------------
Program vvadd();
Program mm();
Program memcpyKernel();
Program mergesort();
Program qsortKernel();
Program rsort();
Program towers();
Program spmv();
/** Pointer chase: `nodes` blocks shuffled, `hops` dereferences. */
Program pointerChase(u64 nodes, u64 hops);
/** Code footprint stress: many functions spanning > L1I. */
Program icacheStress(u32 functions, u32 body_insts, u32 passes);
/**
 * Branch-inversion case-study pair (Rocket CS2 / BOOM CS).
 * @param inverted false: each chain branch alternates taken/not-taken
 * across iterations (defeats 2-bit BHTs, learnable by TAGE);
 * true: each branch is always taken, so even a cold/aliased 2-bit
 * predictor tracks it, but the not-taken padding executes.
 */
Program brmiss(bool inverted);

// ---- composite ------------------------------------------------------
/**
 * CoreMark-like kernel: list search, small matrix multiply, state
 * machine, CRC. @param scheduled reorder loop bodies to hide
 * load-use and mul latencies (the -fschedule-insns case study);
 * instruction counts are identical in both variants.
 */
Program coremark(bool scheduled);
Program dhrystone();

// ---- SPEC CPU2017 intrate proxies ----------------------------------
Program spec500PerlbenchR();
Program spec502GccR();
Program spec505McfR();
Program spec520OmnetppR();
Program spec523XalancbmkR();
Program spec525X264R();
/** @param l1d_sensitive_kib working-set size (Rocket CS1 uses 24). */
Program spec531DeepsjengR(u32 working_set_kib = 24);
Program spec541LeelaR();
Program spec548Exchange2R();
Program spec557XzR();

} // namespace workloads

} // namespace icicle

#endif // ICICLE_WORKLOADS_WORKLOADS_HH
