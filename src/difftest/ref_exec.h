/**
 * @file
 * Independent scalar PTX reference interpreter (the differential-test ground
 * truth the paper obtained from real hardware, Section III-D).
 *
 * Independence rule: RefExec shares no code with src/func. It executes each
 * thread of a CTA sequentially to its next barrier (naive round-based sync),
 * models registers as raw 64-bit cells with width-masked partial writes, and
 * implements instruction semantics as one big switch written from the PTX
 * ISA spec (plus the simulator's documented edge-case conventions: integer
 * division by zero yields all-ones, rem by zero returns the dividend). It
 * reuses only leaf common/ helpers (fp16 conversion, Dim3) and the parsed
 * ptx:: IR, which is the shared input format by design.
 */
#ifndef MLGS_DIFFTEST_REF_EXEC_H
#define MLGS_DIFFTEST_REF_EXEC_H

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "ptx/ir.h"

namespace mlgs::difftest
{

/** One caller-provided global buffer, mutated in place by run(). */
struct RefBuffer
{
    addr_t base = 0;
    std::vector<uint8_t> *bytes = nullptr;
};

/** Scalar reference execution of one kernel grid. */
class RefExec
{
  public:
    RefExec(const ptx::KernelDef &kernel, Dim3 grid, Dim3 block,
            std::vector<uint8_t> params, std::vector<RefBuffer> globals);

    /** Execute the full grid; throws FatalError on deadlock/unsupported op. */
    void run();

    /** Final register file of one thread (raw 64-bit cells, reg-id order). */
    const std::vector<uint64_t> &threadRegs(unsigned linear_cta,
                                            unsigned tid) const
    {
        return regs_.at(size_t(linear_cta) * threads_per_cta_ + tid);
    }

    unsigned threadsPerCta() const { return threads_per_cta_; }
    uint64_t numCtas() const { return num_ctas_; }

  private:
    struct Thread
    {
        std::vector<uint64_t> *regs = nullptr;
        uint32_t pc = 0;
        enum { Running, AtBarrier, Done } state = Running;
        Dim3 idx3;
        unsigned tid = 0;
        std::vector<uint8_t> local; ///< the thread's .local bytes
    };

    void runCta(uint64_t linear_cta);
    /** Run one thread until barrier/exit. Returns false when it deadlocks. */
    void runThread(Thread &t, std::vector<uint8_t> &shared, const Dim3 &cta);

    uint64_t readOperand(const ptx::Instr &ins, const ptx::Operand &op,
                         const Thread &t, const Dim3 &cta) const;
    addr_t symbolAddr(const std::string &sym) const;
    void loadBytes(addr_t addr, void *out, size_t n, Thread &t,
                   std::vector<uint8_t> &shared, ptx::Space space) const;
    void storeBytes(addr_t addr, const void *src, size_t n, Thread &t,
                    std::vector<uint8_t> &shared, ptx::Space space) const;

    const ptx::KernelDef &k_;
    Dim3 grid_, block_;
    std::vector<uint8_t> params_;
    std::vector<RefBuffer> globals_;

    unsigned threads_per_cta_ = 0;
    uint64_t num_ctas_ = 0;
    std::vector<std::vector<uint64_t>> regs_; ///< [cta*tpc + tid][reg]
};

} // namespace mlgs::difftest

#endif // MLGS_DIFFTEST_REF_EXEC_H
