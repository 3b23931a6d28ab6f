/**
 * @file
 * Dynamic shared-memory race detection for the functional executor: the
 * run-time confirmation side of the static verifier's shared-race check.
 *
 * Each CTA carries per-byte shadow state over its shared segment recording
 * the last writer and last reader (thread id, source line, phase). The
 * phase counter advances whenever the CTA's barrier releases, so conflicts
 * are only flagged between accesses in the same barrier-delimited phase —
 * exactly the warp-epoch partitioning the static analysis reasons about.
 * Atomics are excluded (they serialize by definition). The shadow is
 * passive: it never alters simulated state, so enabling it is bitwise
 * neutral on simulation results.
 */
#ifndef MLGS_FUNC_RACE_CHECK_H
#define MLGS_FUNC_RACE_CHECK_H

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <vector>

namespace mlgs::func
{

/** One confirmed same-phase conflict on a shared-memory byte. */
struct RaceRecord
{
    int line_a = 0;      ///< source line of the earlier access
    int line_b = 0;      ///< source line of the later access
    uint32_t pc_a = 0;
    uint32_t pc_b = 0;
    unsigned tid_a = 0;
    unsigned tid_b = 0;
    uint32_t offset = 0; ///< first conflicting byte offset in shared memory
    bool a_is_write = false;
    bool b_is_write = false;
    uint32_t phase = 0;
};

/** Per-CTA shadow state; owned by CtaExec when race checking is enabled. */
class RaceShadow
{
  public:
    explicit RaceShadow(size_t shared_bytes) : bytes_(shared_bytes) {}

    /** Call when the CTA's barrier releases: starts a new phase. */
    void advancePhase() { phase_++; }

    uint32_t phase() const { return phase_; }

    void
    onAccess(size_t off, size_t len, unsigned tid, uint32_t pc, int line,
             bool is_write)
    {
        if (off >= bytes_.size())
            return;
        len = std::min(len, bytes_.size() - off);
        for (size_t i = off; i < off + len; i++) {
            ByteState &b = bytes_[i];
            if (is_write) {
                if (b.w_phase == phase_ && b.w_tid >= 0 &&
                    unsigned(b.w_tid) != tid)
                    record(b.w_pc, b.w_line, unsigned(b.w_tid), true, pc,
                           line, tid, true, uint32_t(i));
                if (b.r_phase == phase_ && b.r_tid >= 0 &&
                    unsigned(b.r_tid) != tid)
                    record(b.r_pc, b.r_line, unsigned(b.r_tid), false, pc,
                           line, tid, true, uint32_t(i));
                b.w_phase = phase_;
                b.w_pc = pc;
                b.w_line = line;
                b.w_tid = int32_t(tid);
            } else {
                if (b.w_phase == phase_ && b.w_tid >= 0 &&
                    unsigned(b.w_tid) != tid)
                    record(b.w_pc, b.w_line, unsigned(b.w_tid), true, pc,
                           line, tid, false, uint32_t(i));
                b.r_phase = phase_;
                b.r_pc = pc;
                b.r_line = line;
                b.r_tid = int32_t(tid);
            }
        }
    }

    const std::vector<RaceRecord> &races() const { return races_; }

  private:
    struct ByteState
    {
        uint32_t w_phase = ~0u;
        uint32_t r_phase = ~0u;
        uint32_t w_pc = 0;
        uint32_t r_pc = 0;
        int32_t w_line = 0;
        int32_t r_line = 0;
        int32_t w_tid = -1;
        int32_t r_tid = -1;
    };

    void
    record(uint32_t pc_a, int line_a, unsigned tid_a, bool a_w, uint32_t pc_b,
           int line_b, unsigned tid_b, bool b_w, uint32_t off)
    {
        // One report per (pc, pc, kind) pair keeps a byte-granular scan
        // from flooding the log with one record per overlapping byte.
        const uint64_t key = (uint64_t(pc_a) << 34) | (uint64_t(pc_b) << 4) |
                             (uint64_t(a_w) << 1) | uint64_t(b_w);
        if (!seen_.insert(key).second || races_.size() >= kMaxRecords)
            return;
        RaceRecord r;
        r.pc_a = pc_a;
        r.line_a = line_a;
        r.tid_a = tid_a;
        r.a_is_write = a_w;
        r.pc_b = pc_b;
        r.line_b = line_b;
        r.tid_b = tid_b;
        r.b_is_write = b_w;
        r.offset = off;
        r.phase = phase_;
        races_.push_back(r);
    }

    static constexpr size_t kMaxRecords = 64;

    std::vector<ByteState> bytes_;
    std::vector<RaceRecord> races_;
    std::unordered_set<uint64_t> seen_;
    uint32_t phase_ = 0;
};

} // namespace mlgs::func

#endif // MLGS_FUNC_RACE_CHECK_H
