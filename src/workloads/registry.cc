#include "workloads/workloads.hh"

#include "common/logging.hh"

namespace icicle
{

const std::vector<WorkloadInfo> &
allWorkloads()
{
    using namespace workloads;
    static const std::vector<WorkloadInfo> registry = {
        {"vvadd", "micro", "streaming vector add", [] { return vvadd(); }},
        {"mm", "micro", "24x24 integer matrix multiply",
         [] { return mm(); }},
        {"memcpy", "micro", "128 KiB block copy",
         [] { return memcpyKernel(); }},
        {"mergesort", "micro", "bottom-up mergesort of 1024 keys",
         [] { return mergesort(); }},
        {"qsort", "micro", "recursive quicksort of 1024 keys",
         [] { return qsortKernel(); }},
        {"rsort", "micro", "LSD radix sort of 1024 keys",
         [] { return rsort(); }},
        {"towers", "micro", "towers of Hanoi, depth 12",
         [] { return towers(); }},
        {"spmv", "micro", "sparse matrix-vector multiply",
         [] { return spmv(); }},
        {"pointer-chase", "micro", "out-of-L2 linked-list chase",
         [] { return pointerChase(16384, 8000); }},
        {"icache-stress", "micro", "code footprint beyond L1I",
         [] { return icacheStress(96, 100, 4); }},
        {"brmiss", "micro", "alternating branch chain (mispredicts)",
         [] { return brmiss(false); }},
        {"brmiss-inv", "micro", "inverted branch chain (predictable)",
         [] { return brmiss(true); }},

        {"coremark", "composite", "CoreMark-like, unscheduled",
         [] { return coremark(false); }},
        {"coremark-sched", "composite", "CoreMark-like, scheduled",
         [] { return coremark(true); }},
        {"dhrystone", "composite", "Dhrystone-like mix",
         [] { return dhrystone(); }},

        {"500.perlbench_r", "spec", "string hash + dispatch ladder",
         [] { return spec500PerlbenchR(); }},
        {"502.gcc_r", "spec", "IR-node pattern rewriting",
         [] { return spec502GccR(); }},
        {"505.mcf_r", "spec", "out-of-L2 arc pointer chasing",
         [] { return spec505McfR(); }},
        {"520.omnetpp_r", "spec", "binary-heap event queue",
         [] { return spec520OmnetppR(); }},
        {"523.xalancbmk_r", "spec", "pointer tree descents",
         [] { return spec523XalancbmkR(); }},
        {"525.x264_r", "spec", "SAD loops, high ILP",
         [] { return spec525X264R(); }},
        {"531.deepsjeng_r", "spec", "transposition-table probes",
         [] { return spec531DeepsjengR(); }},
        {"541.leela_r", "spec", "bitboard popcount playouts",
         [] { return spec541LeelaR(); }},
        {"548.exchange2_r", "spec", "recursive permutation search",
         [] { return spec548Exchange2R(); }},
        {"557.xz_r", "spec", "match-finder byte runs",
         [] { return spec557XzR(); }},
    };
    return registry;
}

const WorkloadInfo &
findWorkload(const std::string &name)
{
    for (const WorkloadInfo &info : allWorkloads()) {
        if (info.name == name)
            return info;
    }
    fatal("unknown workload: ", name);
}

Program
buildWorkload(const std::string &name)
{
    return findWorkload(name).build();
}

std::vector<std::string>
workloadNames(const std::string &suite)
{
    std::vector<std::string> names;
    for (const WorkloadInfo &info : allWorkloads()) {
        if (suite.empty() || info.suite == suite)
            names.push_back(info.name);
    }
    return names;
}

} // namespace icicle
