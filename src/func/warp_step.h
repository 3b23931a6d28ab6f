/**
 * @file
 * Result record of executing one warp instruction — the contract between the
 * functional executor and both engines (pure-functional and timing).
 */
#ifndef MLGS_FUNC_WARP_STEP_H
#define MLGS_FUNC_WARP_STEP_H

#include <vector>

#include "common/types.h"
#include "ptx/ir.h"

namespace mlgs::func
{

/** One per-lane memory transaction produced by a memory instruction. */
struct MemAccess
{
    addr_t addr = 0;
    unsigned size = 0;
    bool is_store = false;
    bool is_atomic = false;
    ptx::Space space = ptx::Space::Global;
};

/** Outcome of stepping a warp by one instruction. */
struct WarpStepResult
{
    const ptx::Instr *ins = nullptr; ///< instruction that executed
    uint32_t pc = 0;                 ///< its PC
    warp_mask_t active = 0;          ///< lanes that executed (guard applied)
    std::vector<MemAccess> accesses; ///< per-lane accesses (global/local/tex)
    unsigned shared_accesses = 0;    ///< lane count touching shared memory
    bool barrier = false;            ///< warp arrived at bar.sync
    bool exited = false;             ///< warp fully exited
};

} // namespace mlgs::func

#endif // MLGS_FUNC_WARP_STEP_H
