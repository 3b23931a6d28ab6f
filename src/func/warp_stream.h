/**
 * @file
 * Issue records: one compact record per warp instruction, holding exactly
 * what the timing core consumes at issue (pc, active mask, shared-lane
 * count, barrier and exit flags, and the instruction's coalesced load and
 * store cache lines). Detailed timing consumes them from a per-warp cursor;
 * the batch executor produces them ahead of issue in bounded chunks, and a
 * WarpStreamCache keeps a whole run's records for trace-driven timing
 * replay.
 *
 * A warp's records depend only on the warp's own program order, not on how
 * the scheduler interleaves warps, so replaying stored streams through the
 * timing model reproduces the original run's statistics bitwise while
 * skipping all register and memory work. Device memory is NOT written
 * during stream replay, so recorded D2H payloads cannot be re-verified in
 * that mode.
 */
#ifndef MLGS_FUNC_WARP_STREAM_H
#define MLGS_FUNC_WARP_STREAM_H

#include <algorithm>
#include <span>
#include <vector>

#include "common/log.h"
#include "func/warp_step.h"

namespace mlgs::func
{

/** One warp instruction as the timing core consumes it. */
struct IssueRecord
{
    uint32_t pc = 0;
    warp_mask_t active = 0;      ///< lanes that executed (guard applied)
    uint32_t first_line = 0;     ///< index of its first line in the pool
    uint16_t shared_accesses = 0; ///< lanes touching shared memory
    uint8_t n_load_lines = 0;    ///< load lines, then store lines, in the pool
    uint8_t n_store_lines = 0;
    bool barrier = false;        ///< warp arrived at bar.sync
    bool exited = false;         ///< warp fully exited
};

/**
 * A run of issue records and the pool of line addresses they slice: one
 * warp's chunk in flight, or a warp's whole stored stream.
 *
 * Lines are cache-line addresses for one line size, in the order the timing
 * core issues them: first appearance in lane order, with the second line of
 * an access straddling a line boundary right after its first, loads before
 * stores.
 */
struct IssueStream
{
    std::vector<IssueRecord> recs;
    std::vector<addr_t> lines;

    void
    clear()
    {
        recs.clear();
        lines.clear();
    }

    std::span<const addr_t>
    loadLines(const IssueRecord &r) const
    {
        return {lines.data() + r.first_line, r.n_load_lines};
    }
    std::span<const addr_t>
    storeLines(const IssueRecord &r) const
    {
        return {lines.data() + r.first_line + r.n_load_lines, r.n_store_lines};
    }

    /** Append a copy of `r`, whose lines are in `from`, with its lines. */
    void
    append(const IssueRecord &r, const addr_t *from)
    {
        IssueRecord c = r;
        c.first_line = uint32_t(lines.size());
        lines.insert(lines.end(), from + r.first_line,
                     from + r.first_line + r.n_load_lines + r.n_store_lines);
        recs.push_back(c);
    }

    /**
     * Append the record of one stepped instruction, coalescing its per-lane
     * accesses into `line_bytes` lines (the per-step path's conversion).
     */
    void
    appendStep(const WarpStepResult &res, unsigned line_bytes)
    {
        IssueRecord r;
        r.pc = res.pc;
        r.active = res.active;
        r.first_line = uint32_t(lines.size());
        r.shared_accesses = uint16_t(res.shared_accesses);
        r.barrier = res.barrier;
        r.exited = res.exited;
        const addr_t mask = ~addr_t(line_bytes - 1);
        for (const bool stores : {false, true}) {
            const size_t begin = lines.size();
            for (const MemAccess &acc : res.accesses) {
                if (acc.is_store != stores)
                    continue;
                const addr_t la = acc.addr & mask;
                const addr_t lb = (acc.addr + acc.size - 1) & mask;
                for (const addr_t l : {la, lb})
                    if (std::find(lines.begin() + long(begin), lines.end(),
                                  l) == lines.end())
                        lines.push_back(l);
            }
            (stores ? r.n_store_lines : r.n_load_lines) =
                uint8_t(lines.size() - begin);
        }
        recs.push_back(r);
    }
};

/**
 * The batch executor's record sink: opens one record per executed warp
 * instruction and coalesces each lane's access into its lines as the lane
 * runs, so no per-lane access list is ever built.
 */
class IssueSink
{
  public:
    IssueSink(IssueStream &out, unsigned line_bytes)
        : out_(&out), mask_(~addr_t(line_bytes - 1))
    {
    }

    /** Open the record of the next instruction. */
    void
    begin(uint32_t pc, warp_mask_t active)
    {
        IssueRecord r;
        r.pc = pc;
        r.active = active;
        r.first_line = uint32_t(out_->lines.size());
        out_->recs.push_back(r);
    }

    IssueRecord &current() { return out_->recs.back(); }

    /** One lane's global/const/local/texture access of `size` bytes. */
    void
    access(addr_t addr, unsigned size, bool is_store)
    {
        const addr_t la = addr & mask_;
        addLine(la, is_store);
        const addr_t lb = (addr + size - 1) & mask_;
        if (lb != la)
            addLine(lb, is_store);
    }

    void sharedLane() { current().shared_accesses++; }

  private:
    void
    addLine(addr_t line, bool is_store)
    {
        IssueRecord &r = current();
        std::vector<addr_t> &lines = out_->lines;
        // Consecutive lanes mostly share a line: test the newest one first.
        const size_t begin = r.first_line + (is_store ? r.n_load_lines : 0u);
        if (lines.size() > begin &&
            (lines.back() == line ||
             std::find(lines.begin() + long(begin), lines.end(), line) !=
                 lines.end()))
            return;
        // An instruction's accesses are all loads or all stores.
        MLGS_ASSERT(is_store || r.n_store_lines == 0,
                    "load line after store lines in one instruction");
        lines.push_back(line);
        (is_store ? r.n_store_lines : r.n_load_lines)++;
    }

    IssueStream *out_;
    addr_t mask_;
};

/** Streams of one launch, indexed [linear_cta * warps_per_cta + warp]. */
struct KernelStreams
{
    uint64_t ctas = 0;
    unsigned warps_per_cta = 0;
    std::vector<IssueStream> warps;
};

/**
 * Issue records of a whole run, indexed by LaunchEnv::launch_seq: what the
 * timing core consumed, captured at issue, for trace-driven timing replay.
 */
class WarpStreamCache
{
  public:
    /** Append one consumed record (its lines in `lines`). */
    void
    append(uint64_t launch_seq, uint64_t ctas, unsigned warps_per_cta,
           uint64_t linear_cta, unsigned warp, const IssueRecord &r,
           const addr_t *lines)
    {
        if (launch_seq >= launches_.size())
            launches_.resize(launch_seq + 1);
        KernelStreams &ks = launches_[launch_seq];
        if (ks.warps.empty()) {
            ks.ctas = ctas;
            ks.warps_per_cta = warps_per_cta;
            ks.warps.resize(size_t(ctas) * warps_per_cta);
        }
        ks.warps[index(ks, linear_cta, warp)].append(r, lines);
    }

    const IssueStream &
    stream(uint64_t launch_seq, uint64_t linear_cta, unsigned warp) const
    {
        MLGS_REQUIRE(launch_seq < launches_.size(),
                     "warp stream replay: launch ", launch_seq,
                     " was never recorded (", launches_.size(),
                     " launches in the cache)");
        const KernelStreams &ks = launches_[launch_seq];
        return ks.warps[index(ks, linear_cta, warp)];
    }

    size_t launchCount() const { return launches_.size(); }

    uint64_t
    totalSteps() const
    {
        uint64_t n = 0;
        for (const auto &ks : launches_)
            for (const auto &ws : ks.warps)
                n += ws.recs.size();
        return n;
    }

  private:
    static size_t
    index(const KernelStreams &ks, uint64_t linear_cta, unsigned warp)
    {
        MLGS_REQUIRE(linear_cta < ks.ctas && warp < ks.warps_per_cta,
                     "warp stream replay: CTA ", linear_cta, " warp ", warp,
                     " outside the recorded grid");
        return size_t(linear_cta) * ks.warps_per_cta + warp;
    }

    std::vector<KernelStreams> launches_;
};

} // namespace mlgs::func

#endif // MLGS_FUNC_WARP_STREAM_H
