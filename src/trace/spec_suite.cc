#include "trace/spec_suite.hh"

#include <map>
#include <mutex>

#include "common/logging.hh"
#include "trace/kernels.hh"

namespace sb
{

std::vector<std::string>
SpecSuite::benchmarkNames()
{
    return {
        "500.perlbench", "502.gcc",       "503.bwaves",   "505.mcf",
        "507.cactuBSSN", "508.namd",      "510.parest",   "511.povray",
        "519.lbm",       "520.omnetpp",   "521.wrf",      "523.xalancbmk",
        "525.x264",      "527.cam4",      "531.deepsjeng","538.imagick",
        "541.leela",     "544.nab",       "548.exchange2","549.fotonik3d",
        "554.roms",      "557.xz",
    };
}

Workload
SpecSuite::make(const std::string &name)
{
    static std::mutex mutex;
    static std::map<std::string, Workload> memo;
    {
        std::lock_guard<std::mutex> lock(mutex);
        const auto it = memo.find(name);
        if (it != memo.end())
            return it->second;
    }
    // Build outside the lock, so an unknown name dies without holding
    // it and a slow build does not stall lookups of other names. Two
    // threads racing on one name build identical programs; the first
    // insert wins.
    Workload w = build(name);
    std::lock_guard<std::mutex> lock(mutex);
    return memo.emplace(name, std::move(w)).first->second;
}

Workload
SpecSuite::build(const std::string &name)
{
    Program p;

    if (name == "500.perlbench") {
        HashMixParams h;
        h.footprintBytes = 512u << 10;
        h.probesPerIter = 2;
        h.computePerProbe = 4;
        h.storeFraction = 0.4;
        h.slowBranchFraction = 0.6;
        h.noisyBranchFraction = 0.2;
        h.dependentLoadFraction = 0.5;
        h.seed = 500;
        p = makeHashMixKernel(h);
    } else if (name == "502.gcc") {
        HashMixParams h;
        h.footprintBytes = 2u << 20;
        h.probesPerIter = 2;
        h.computePerProbe = 3;
        h.storeFraction = 0.3;
        h.slowBranchFraction = 0.4;
        h.noisyBranchFraction = 0.25;
        h.dependentLoadFraction = 0.15;
        h.seed = 502;
        p = makeHashMixKernel(h);
    } else if (name == "503.bwaves") {
        StreamParams s;
        s.footprintBytes = 32u << 20;
        s.loadsPerIter = 2;
        s.computePerLoad = 2;
        s.useFp = true;
        s.storePerIter = true;
        s.seed = 503;
        p = makeStreamKernel(s);
    } else if (name == "505.mcf") {
        PointerChaseParams c;
        c.footprintBytes = 8u << 20;
        c.chains = 3;
        c.workPerHop = 2;
        c.slowBranchFraction = 1.0;
        c.noisyBranchFraction = 0.3;
        c.seed = 505;
        c.branchChainLength = 8;
        p = makePointerChaseKernel(c);
    } else if (name == "507.cactuBSSN") {
        ComputeChainParams k;
        k.chainLength = 6;
        k.chainsPerIter = 3;
        k.useFp = true;
        k.loadsPerIter = 3;
        k.hotBytes = 64u << 10;
        k.seed = 507;
        k.independentWork = 8;
        p = makeComputeChainKernel(k);
    } else if (name == "508.namd") {
        ComputeChainParams k;
        k.chainLength = 4;
        k.chainsPerIter = 4;
        k.useFp = true;
        k.loadsPerIter = 2;
        k.hotBytes = 32u << 10;
        k.seed = 508;
        k.independentWork = 12;
        p = makeComputeChainKernel(k);
    } else if (name == "510.parest") {
        ComputeChainParams k;
        k.chainLength = 5;
        k.chainsPerIter = 2;
        k.useFp = true;
        k.loadsPerIter = 3;
        k.hotBytes = 256u << 10;
        k.seed = 510;
        k.independentWork = 14;
        p = makeComputeChainKernel(k);
    } else if (name == "511.povray") {
        BranchyParams br;
        br.hardBranches = 2;
        br.easyBranches = 2;
        br.computePerBranch = 4;
        br.footprintBytes = 128u << 10;
        br.loadConditionFraction = 0.3;
        br.seed = 511;
        br.slowBranchChain = 6;
        p = makeBranchyKernel(br);
    } else if (name == "519.lbm") {
        StreamParams s;
        s.footprintBytes = 64u << 20;
        s.loadsPerIter = 3;
        s.computePerLoad = 2;
        s.useFp = true;
        s.storePerIter = true;
        s.seed = 519;
        p = makeStreamKernel(s);
    } else if (name == "520.omnetpp") {
        PointerChaseParams c;
        c.footprintBytes = 16u << 20;
        c.chains = 4;
        c.workPerHop = 3;
        c.slowBranchFraction = 0.8;
        c.noisyBranchFraction = 0.2;
        c.seed = 520;
        c.branchChainLength = 6;
        p = makePointerChaseKernel(c);
    } else if (name == "521.wrf") {
        ComputeChainParams k;
        k.chainLength = 4;
        k.chainsPerIter = 3;
        k.useFp = true;
        k.loadsPerIter = 3;
        k.hotBytes = 1u << 20;
        k.seed = 521;
        k.independentWork = 10;
        p = makeComputeChainKernel(k);
    } else if (name == "523.xalancbmk") {
        HashMixParams h;
        h.footprintBytes = 4u << 20;
        h.probesPerIter = 3;
        h.computePerProbe = 2;
        h.storeFraction = 0.2;
        h.slowBranchFraction = 0.45;
        h.noisyBranchFraction = 0.2;
        h.dependentLoadFraction = 0.25;
        h.seed = 523;
        p = makeHashMixKernel(h);
    } else if (name == "525.x264") {
        ComputeChainParams k;
        k.chainLength = 3;
        k.chainsPerIter = 4;
        k.useFp = false;
        k.loadsPerIter = 3;
        k.hotBytes = 512u << 10;
        k.seed = 525;
        p = makeComputeChainKernel(k);
    } else if (name == "527.cam4") {
        StreamParams s;
        s.footprintBytes = 16u << 20;
        s.loadsPerIter = 2;
        s.computePerLoad = 3;
        s.useFp = true;
        s.storePerIter = true;
        s.seed = 527;
        p = makeStreamKernel(s);
    } else if (name == "531.deepsjeng") {
        BranchyParams br;
        br.hardBranches = 3;
        br.easyBranches = 1;
        br.computePerBranch = 3;
        br.footprintBytes = 1u << 20;
        br.loadConditionFraction = 0.7;
        br.seed = 531;
        br.slowBranchChain = 8;
        p = makeBranchyKernel(br);
    } else if (name == "538.imagick") {
        ComputeChainParams k;
        k.chainLength = 8;
        k.chainsPerIter = 2;
        k.useFp = true;
        k.loadsPerIter = 2;
        k.hotBytes = 16u << 10;
        k.seed = 538;
        k.independentWork = 6;
        p = makeComputeChainKernel(k);
    } else if (name == "541.leela") {
        BranchyParams br;
        br.hardBranches = 3;
        br.easyBranches = 2;
        br.computePerBranch = 2;
        br.footprintBytes = 512u << 10;
        br.loadConditionFraction = 0.6;
        br.seed = 541;
        br.slowBranchChain = 8;
        p = makeBranchyKernel(br);
    } else if (name == "544.nab") {
        ComputeChainParams k;
        k.chainLength = 5;
        k.chainsPerIter = 3;
        k.useFp = true;
        k.loadsPerIter = 2;
        k.hotBytes = 128u << 10;
        k.seed = 544;
        k.independentWork = 14;
        p = makeComputeChainKernel(k);
    } else if (name == "548.exchange2") {
        StoreForwardParams sf;
        sf.regionBytes = 4u << 10;
        sf.depth = 3;
        sf.computePerLevel = 2;
        sf.loadedData = true;
        sf.chainAfterPop = 20;
        sf.seed = 548;
        sf.independentWork = 12;
        p = makeStoreForwardKernel(sf);
    } else if (name == "549.fotonik3d") {
        StreamParams s;
        s.footprintBytes = 32u << 20;
        s.loadsPerIter = 2;
        s.computePerLoad = 2;
        s.useFp = true;
        s.storePerIter = true;
        s.seed = 549;
        p = makeStreamKernel(s);
    } else if (name == "554.roms") {
        StreamParams s;
        s.footprintBytes = 32u << 20;
        s.loadsPerIter = 3;
        s.computePerLoad = 2;
        s.useFp = true;
        s.storePerIter = false;
        s.seed = 554;
        p = makeStreamKernel(s);
    } else if (name == "557.xz") {
        HashMixParams h;
        h.footprintBytes = 2u << 20;
        h.probesPerIter = 2;
        h.computePerProbe = 3;
        h.storeFraction = 0.4;
        h.slowBranchFraction = 0.5;
        h.noisyBranchFraction = 0.15;
        h.dependentLoadFraction = 0.45;
        h.seed = 557;
        p = makeHashMixKernel(h);
    } else {
        sb_fatal("unknown SPEC2017 stand-in: ", name);
    }

    Workload w;
    w.name = name;
    w.program = std::move(p);
    return w;
}

std::vector<Workload>
SpecSuite::all()
{
    std::vector<Workload> out;
    for (const auto &name : benchmarkNames())
        out.push_back(make(name));
    return out;
}

} // namespace sb
