/**
 * @file
 * Static performance analysis (perflint.h). The address side reuses the
 * verifier's affine abstraction: for a site whose effective address is
 * base + c0 + ct·tid with a CTA-uniform (possibly unknown) base, the offset
 * of every lane of every warp of the block is known exactly, so the
 * coalescing rule of the timing model (distinct L1 lines per warp access,
 * ShaderCore::issueWarp) and the bank rule (distinct words per bank,
 * same-word broadcast) can be evaluated symbolically. Unknown-uniform bases
 * are assumed line/bank aligned — tab_perflint's agreement tolerance carries
 * the resulting slack explicitly (DESIGN.md §13).
 */
#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <set>
#include <sstream>

#include "ptx/verifier/internal.h"
#include "ptx/verifier/perflint.h"

namespace mlgs::ptx::verifier
{

namespace
{

using detail::Affine;

int64_t
floorDiv(int64_t a, int64_t b)
{
    return a >= 0 ? a / b : -((-a + b - 1) / b);
}

/** Linear thread id -> (tid.x, tid.y, tid.z) for a block shape. */
void
threadIdx3(uint64_t t, const unsigned block[3], int64_t tid[3])
{
    tid[0] = int64_t(t % block[0]);
    tid[1] = int64_t((t / block[0]) % block[1]);
    tid[2] = int64_t(t / (uint64_t(block[0]) * block[1]));
}

int64_t
laneOffset(const Affine &a, const int64_t tid[3])
{
    return a.c0 + a.ct[0] * tid[0] + a.ct[1] * tid[1] + a.ct[2] * tid[2];
}

bool
isSharedSite(const Instr &ins, const Affine &addr)
{
    return ins.space == Space::Shared || (addr.valid && addr.var >= 0);
}

bool
isGlobalSite(const Instr &ins, const Affine &addr)
{
    if (isSharedSite(ins, addr))
        return false;
    if (ins.space == Space::Global)
        return true;
    // Generic addressing: a base that is not a shared variable is presumed
    // to point at global memory (the shipped kernels take buffer pointers as
    // params). Param/const/local qualified accesses never reach here.
    return ins.space == Space::None;
}

/**
 * Estimated transactions-per-warp-access: mean over the block's warps of
 * the number of distinct line_bytes-sized lines the warp's lanes touch
 * (straddles count both lines), exactly the dedupe the timing model
 * performs per executed access.
 */
void
predictGlobal(const Affine &addr, unsigned width, const unsigned block[3],
              const PerfModel &m, GlobalSiteReport &site)
{
    const uint64_t nthreads = uint64_t(block[0]) * block[1] * block[2];
    const int64_t line = int64_t(m.line_bytes);
    double txn_sum = 0, ideal_sum = 0;
    unsigned warps = 0;
    for (uint64_t base = 0; base < nthreads; base += m.warp_size, warps++) {
        const unsigned lanes =
            unsigned(std::min<uint64_t>(m.warp_size, nthreads - base));
        std::set<int64_t> lines;
        for (unsigned l = 0; l < lanes; l++) {
            int64_t tid[3];
            threadIdx3(base + l, block, tid);
            const int64_t off = laneOffset(addr, tid);
            const int64_t first = floorDiv(off, line);
            const int64_t last = floorDiv(off + int64_t(width) - 1, line);
            for (int64_t ln = first; ln <= last; ln++)
                lines.insert(ln);
        }
        txn_sum += double(lines.size());
        ideal_sum +=
            double((uint64_t(lanes) * width + m.line_bytes - 1) /
                   m.line_bytes);
    }
    if (warps == 0)
        return;
    site.txn_per_warp = txn_sum / warps;
    site.ideal_txn = std::max(1.0, ideal_sum / warps);
    site.cls = classifyTransactions(
        site.txn_per_warp, site.ideal_txn,
        unsigned(std::min<uint64_t>(m.warp_size, nthreads)));
}

/**
 * Estimated bank-conflict degree: max over warps of the largest number of
 * distinct bank_bytes words one bank must serve for a single warp access.
 * Lanes hitting the same word broadcast (degree contribution 1); accesses
 * wider than a word occupy consecutive words.
 */
void
predictShared(const KernelDef &k, const Affine &addr, unsigned width,
              const unsigned block[3], const PerfModel &m,
              SharedSiteReport &site)
{
    const int64_t seg_base =
        addr.var >= 0 && size_t(addr.var) < k.shared_vars.size()
            ? int64_t(k.shared_vars[size_t(addr.var)].offset)
            : 0;
    const uint64_t nthreads = uint64_t(block[0]) * block[1] * block[2];
    unsigned degree = 1;
    bool broadcast = nthreads > 1;
    for (uint64_t base = 0; base < nthreads; base += m.warp_size) {
        const unsigned lanes =
            unsigned(std::min<uint64_t>(m.warp_size, nthreads - base));
        // bank -> distinct word indices routed to it this access
        std::vector<std::set<int64_t>> banks(m.shared_banks);
        std::set<int64_t> words;
        for (unsigned l = 0; l < lanes; l++) {
            int64_t tid[3];
            threadIdx3(base + l, block, tid);
            const int64_t off = seg_base + laneOffset(addr, tid);
            const int64_t first = floorDiv(off, int64_t(m.bank_bytes));
            const int64_t last =
                floorDiv(off + int64_t(width) - 1, int64_t(m.bank_bytes));
            for (int64_t w = first; w <= last; w++) {
                int64_t b = w % int64_t(m.shared_banks);
                if (b < 0)
                    b += m.shared_banks;
                banks[size_t(b)].insert(w);
                words.insert(w);
            }
        }
        for (const auto &bw : banks)
            degree = std::max(degree, unsigned(bw.size()));
        broadcast = broadcast && lanes > 1 && words.size() == 1;
    }
    site.conflict_degree = degree;
    site.broadcast = broadcast;
    const unsigned lanes =
        unsigned(std::min<uint64_t>(m.warp_size, nthreads));
    if (degree == 1)
        site.cls = AccessClass::Coalesced;
    else if (double(degree) >= 0.9 * double(lanes))
        site.cls = AccessClass::Diverged;
    else
        site.cls = AccessClass::Strided;
}

/**
 * Fraction of instructions inside some divergent SIMT region: blocks
 * reachable from a divergent-guard branch without passing its reconvergence
 * block execute once per warp split side (same region walk as the
 * barrier-divergence check).
 */
double
divergentFraction(const KernelDef &k, const Cfg &cfg,
                  const detail::Uniformity &uni)
{
    if (k.instrs.empty())
        return 0;
    std::vector<bool> marked(k.instrs.size(), false);
    for (uint32_t pc = 0; pc < k.instrs.size(); pc++) {
        const Instr &ins = k.instrs[pc];
        if (!ins.isBranch() || ins.pred < 0 ||
            !detail::guardDivergent(k, cfg, uni, pc))
            continue;
        const uint32_t rblock = (ins.reconv_pc == kReconvExit)
                                    ? cfg.exitNode()
                                    : cfg.blockOf(ins.reconv_pc);
        std::vector<bool> seen(cfg.numBlocks(), false);
        std::vector<uint32_t> work(
            cfg.blocks()[cfg.blockOf(pc)].succs.begin(),
            cfg.blocks()[cfg.blockOf(pc)].succs.end());
        while (!work.empty()) {
            const uint32_t b = work.back();
            work.pop_back();
            if (b >= cfg.numBlocks() || b == rblock || seen[b])
                continue;
            seen[b] = true;
            for (uint32_t bpc = cfg.blocks()[b].first;
                 bpc <= cfg.blocks()[b].last; bpc++)
                marked[bpc] = true;
            for (const uint32_t s : cfg.blocks()[b].succs)
                work.push_back(s);
        }
    }
    size_t n = 0;
    for (const bool b : marked)
        n += b;
    return double(n) / double(k.instrs.size());
}

void
computeOccupancy(const KernelDef &k, const unsigned block[3],
                 const PerfModel &m, OccupancyReport &occ)
{
    const uint64_t threads = uint64_t(block[0]) * block[1] * block[2];
    occ.regs_per_thread = unsigned(k.reg_types.size());
    occ.shared_bytes = k.shared_bytes;
    occ.warps_per_block =
        unsigned((threads + m.warp_size - 1) / m.warp_size);

    // Mirrors ShaderCore::tryIssueCta's admission conditions.
    struct Limit
    {
        const char *name;
        uint64_t ctas;
    };
    Limit limits[4] = {
        {"threads", threads ? m.max_threads_per_core / threads : 0},
        {"ctas", m.max_ctas_per_core},
        {"shared", k.shared_bytes ? m.shared_mem_per_core / k.shared_bytes
                                  : uint64_t(m.max_ctas_per_core)},
        {"warps", occ.warps_per_block
                      ? m.max_warps_per_core / occ.warps_per_block
                      : 0},
    };
    occ.limiter = limits[0].name;
    uint64_t resident = limits[0].ctas;
    for (const Limit &l : limits) {
        if (l.ctas < resident) {
            resident = l.ctas;
            occ.limiter = l.name;
        }
    }
    occ.resident_ctas = unsigned(resident);
    occ.resident_warps = unsigned(resident * occ.warps_per_block);
    occ.occupancy = m.max_warps_per_core
                        ? double(occ.resident_warps) / m.max_warps_per_core
                        : 0;
}

const char *
siteVerb(bool is_store, bool is_atomic)
{
    if (is_atomic)
        return "atomic";
    return is_store ? "store" : "load";
}

std::string
fmt(const char *f, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, f);
    vsnprintf(buf, sizeof buf, f, ap);
    va_end(ap);
    return buf;
}

} // namespace

const char *
accessClassName(AccessClass c)
{
    switch (c) {
      case AccessClass::Coalesced:
        return "coalesced";
      case AccessClass::Strided:
        return "strided";
      case AccessClass::Diverged:
        return "diverged";
      case AccessClass::Unknown:
        return "unknown";
    }
    return "?";
}

AccessClass
classifyTransactions(double txn, double ideal, unsigned lanes)
{
    if (txn <= ideal + 0.25)
        return AccessClass::Coalesced;
    if (txn >= 0.9 * double(lanes))
        return AccessClass::Diverged;
    return AccessClass::Strided;
}

KernelPerfReport
perfReport(const KernelDef &k, const unsigned *block_in, const PerfModel &m)
{
    MLGS_REQUIRE(k.analyzed, "perfReport before analyzeKernel on '", k.name,
                 "'");
    KernelPerfReport rep;
    rep.kernel = k.name;

    unsigned block[3];
    if (block_in) {
        for (int d = 0; d < 3; d++)
            block[d] = std::max(1u, block_in[d]);
        rep.occ.block_assumed = false;
    } else if (k.hasReqntid()) {
        for (int d = 0; d < 3; d++)
            block[d] = std::max(1u, k.reqntid[d]);
        rep.occ.block_assumed = false;
    } else {
        for (int d = 0; d < 3; d++)
            block[d] = std::max(1u, m.default_block[d]);
        rep.occ.block_assumed = true;
    }
    for (int d = 0; d < 3; d++)
        rep.occ.block[d] = block[d];

    computeOccupancy(k, block, m, rep.occ);
    if (k.instrs.empty())
        return rep;

    const Cfg cfg(k);
    const detail::Uniformity uni = detail::computeUniformity(k);
    rep.occ.divergent_fraction = divergentFraction(k, cfg, uni);
    // Flow-sensitive states: register reuse across loop regions (one %rd
    // holding a global index in the load phase and a tile index in the
    // compute phase) must not blur the per-site address forms.
    const auto site_regs = detail::computeAffineAtSites(k, cfg, uni);

    for (uint32_t pc = 0; pc < k.instrs.size(); pc++) {
        const Instr &ins = k.instrs[pc];
        if (ins.op != Op::Ld && ins.op != Op::St && ins.op != Op::Atom &&
            ins.op != Op::Red)
            continue;
        if (ins.space == Space::Param || ins.space == Space::Const ||
            ins.space == Space::Local || ins.space == Space::Tex)
            continue;
        const auto regs_it = site_regs.find(pc);
        const Affine addr =
            regs_it == site_regs.end()
                ? Affine{}
                : detail::memAddressAffine(k, ins, regs_it->second);
        const unsigned width = typeSize(ins.type) * std::max(1u, ins.vec_width);
        if (width == 0)
            continue;

        if (isSharedSite(ins, addr)) {
            SharedSiteReport s;
            s.pc = pc;
            s.line = ins.line;
            s.col = ins.col;
            s.is_store = ins.op != Op::Ld;
            s.width = width;
            if (addr.valid && !addr.unk_divergent)
                predictShared(k, addr, width, block, m, s);
            rep.shared.push_back(s);
        } else if (isGlobalSite(ins, addr)) {
            GlobalSiteReport g;
            g.pc = pc;
            g.line = ins.line;
            g.col = ins.col;
            g.is_store = ins.op == Op::St || ins.op == Op::Red;
            g.is_atomic = ins.op == Op::Atom || ins.op == Op::Red;
            g.generic = ins.space == Space::None;
            g.width = width;
            if (addr.valid && !addr.unk_divergent)
                predictGlobal(addr, width, block, m, g);
            rep.globals.push_back(g);
        }
    }
    return rep;
}

std::vector<Diagnostic>
perfDiagnostics(const KernelDef &k, const PerfModel &m)
{
    const KernelPerfReport rep = perfReport(k, nullptr, m);
    std::vector<Diagnostic> out;

    for (const GlobalSiteReport &g : rep.globals) {
        const char *verb = siteVerb(g.is_store && !g.is_atomic, g.is_atomic);
        switch (g.cls) {
          case AccessClass::Coalesced:
            break; // silent: that's the goal state
          case AccessClass::Strided:
            out.push_back(detail::makeDiag(
                Severity::Warning, Check::PerfCoalescing, k, g.pc,
                fmt("global %s (%uB/lane) is strided: ~%.1f transactions "
                    "per warp access (ideal %.1f)",
                    verb, g.width, g.txn_per_warp, g.ideal_txn)));
            break;
          case AccessClass::Diverged:
            out.push_back(detail::makeDiag(
                Severity::Warning, Check::PerfCoalescing, k, g.pc,
                fmt("global %s (%uB/lane) is memory-divergent: ~%.1f "
                    "transactions per warp access (ideal %.1f)",
                    verb, g.width, g.txn_per_warp, g.ideal_txn)));
            break;
          case AccessClass::Unknown:
            out.push_back(detail::makeDiag(
                Severity::Note, Check::PerfCoalescing, k, g.pc,
                fmt("global %s (%uB/lane) has a data-dependent address; "
                    "coalescing is not statically predictable",
                    verb, g.width)));
            break;
        }
    }

    for (const SharedSiteReport &s : rep.shared) {
        const char *verb = s.is_store ? "store" : "load";
        if (s.cls == AccessClass::Unknown) {
            out.push_back(detail::makeDiag(
                Severity::Note, Check::PerfBankConflict, k, s.pc,
                fmt("shared %s (%uB/lane) has a data-dependent address; "
                    "bank behavior is not statically predictable",
                    verb, s.width)));
        } else if (s.conflict_degree >= 2) {
            out.push_back(detail::makeDiag(
                Severity::Warning, Check::PerfBankConflict, k, s.pc,
                fmt("shared %s (%uB/lane) has a %u-way bank conflict",
                    verb, s.width, s.conflict_degree)));
        }
    }

    if (!k.instrs.empty()) {
        const OccupancyReport &o = rep.occ;
        out.push_back(detail::makeDiag(
            o.occupancy < 0.5 ? Severity::Warning : Severity::Note,
            Check::PerfOccupancy, k, 0,
            fmt("occupancy %d%%: %u warps/block x %u CTAs = %u/%u resident "
                "warps, limiter %s (%u regs/thread, %lluB shared, block "
                "%ux%ux%u%s)",
                int(std::lround(o.occupancy * 100)), o.warps_per_block,
                o.resident_ctas, o.resident_warps, m.max_warps_per_core,
                o.limiter, o.regs_per_thread,
                (unsigned long long)o.shared_bytes, o.block[0], o.block[1],
                o.block[2], o.block_assumed ? " assumed" : "")));
        if (o.divergent_fraction >= 0.25)
            out.push_back(detail::makeDiag(
                o.divergent_fraction >= 0.5 ? Severity::Warning
                                            : Severity::Note,
                Check::PerfDivergence, k, 0,
                fmt("%d%% of instructions lie inside divergent SIMT regions",
                    int(std::lround(o.divergent_fraction * 100)))));
    }

    std::stable_sort(out.begin(), out.end(),
                     [](const Diagnostic &a, const Diagnostic &b) {
                         return a.pc < b.pc;
                     });
    return out;
}

} // namespace mlgs::ptx::verifier
