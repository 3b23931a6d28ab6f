#include "chkpt/checkpoint.h"

#include "trace/trace_format.h"

namespace mlgs::chkpt
{

namespace
{

constexpr uint64_t kMagic = 0x4d4c47534348504bull; // "MLGSCHPK"

/**
 * Version 2: validated header (putHeader/readHeader) and kernel identity via
 * the trace subsystem's interned (module name, kernel name) pair instead of
 * a bare flat kernel name — the same table .mlgstrace files use, so both
 * formats resolve kernels identically even when names repeat across modules.
 */
constexpr uint32_t kVersion = 2;

} // namespace

void
saveCta(BinaryWriter &w, const func::CtaExec &cta)
{
    w.put<uint32_t>(cta.ctaId().x);
    w.put<uint32_t>(cta.ctaId().y);
    w.put<uint32_t>(cta.ctaId().z);
    w.put<uint32_t>(cta.numThreads());
    // Per-thread registers + local memory.
    for (unsigned t = 0; t < cta.numThreads(); t++) {
        const auto &th = cta.thread(t);
        w.put<uint64_t>(th.regs.size());
        for (const auto &r : th.regs)
            w.put<uint64_t>(r.u64);
        w.putVector(th.local);
    }
    // Per-warp SIMT stacks + barrier flags + instruction counters.
    w.put<uint32_t>(cta.numWarps());
    for (unsigned wp = 0; wp < cta.numWarps(); wp++) {
        const auto &entries = cta.stack(wp).entries();
        w.put<uint64_t>(entries.size());
        for (const auto &e : entries) {
            w.put<uint32_t>(e.pc);
            w.put<uint32_t>(e.rpc);
            w.put<uint32_t>(e.mask);
        }
        w.put<uint8_t>(cta.warpAtBarrier(wp) ? 1 : 0);
        w.put<uint64_t>(cta.warpInstrCount(wp));
    }
    // Shared memory.
    w.putVector(cta.shared());
}

std::unique_ptr<func::CtaExec>
loadCta(BinaryReader &r, const ptx::KernelDef &kernel, const Dim3 &grid,
        const Dim3 &block)
{
    const std::string &ckpt = r.name();
    Dim3 cta_id;
    cta_id.x = r.get<uint32_t>();
    cta_id.y = r.get<uint32_t>();
    cta_id.z = r.get<uint32_t>();
    MLGS_REQUIRE(cta_id.x < grid.x && cta_id.y < grid.y && cta_id.z < grid.z,
                 "corrupt checkpoint ", ckpt, ": CTA (", cta_id.x, ",",
                 cta_id.y, ",", cta_id.z, ") lies outside grid (", grid.x,
                 ",", grid.y, ",", grid.z, ")");
    auto cta = std::make_unique<func::CtaExec>(kernel, grid, block, cta_id);

    const auto nthreads = r.get<uint32_t>();
    MLGS_REQUIRE(nthreads == cta->numThreads(),
                 "checkpoint CTA shape mismatch in ", ckpt);
    for (unsigned t = 0; t < nthreads; t++) {
        auto &th = cta->thread(t);
        const auto nregs = r.get<uint64_t>();
        MLGS_REQUIRE(nregs == th.regs.size(),
                     "checkpoint register-file layout mismatch in ", ckpt);
        for (auto &reg : th.regs)
            reg.u64 = r.get<uint64_t>();
        th.local = r.getVector<uint8_t>();
        MLGS_REQUIRE(th.local.size() == kernel.local_bytes,
                     "corrupt checkpoint ", ckpt, ": thread ", t, " has ",
                     th.local.size(), " bytes of local memory, kernel ",
                     kernel.name, " declares ", kernel.local_bytes);
    }
    const auto nwarps = r.get<uint32_t>();
    MLGS_REQUIRE(nwarps == cta->numWarps(),
                 "checkpoint warp count mismatch in ", ckpt);
    const size_t ninstrs = kernel.instrs.size();
    for (unsigned wp = 0; wp < nwarps; wp++) {
        // A fresh CTA's stack holds exactly the warp's live lanes; lanes past
        // a partial last warp have no thread state to execute against.
        const warp_mask_t live = cta->stack(wp).activeMask();
        auto &stack = cta->stack(wp).entries();
        stack.clear();
        const auto nentries = r.get<uint64_t>();
        for (uint64_t e = 0; e < nentries; e++) {
            func::SimtStack::Entry entry;
            entry.pc = r.get<uint32_t>();
            entry.rpc = r.get<uint32_t>();
            entry.mask = r.get<uint32_t>();
            MLGS_REQUIRE(entry.pc < ninstrs, "corrupt checkpoint ", ckpt,
                         ": warp ", wp, " pc ", entry.pc, " is past the ",
                         ninstrs, " instructions of ", kernel.name);
            MLGS_REQUIRE(entry.rpc < ninstrs ||
                             entry.rpc == ptx::kReconvExit,
                         "corrupt checkpoint ", ckpt, ": warp ", wp,
                         " reconvergence pc ", entry.rpc, " is past the ",
                         ninstrs, " instructions of ", kernel.name);
            MLGS_REQUIRE(entry.mask != 0 && (entry.mask & ~live) == 0,
                         "corrupt checkpoint ", ckpt, ": warp ", wp,
                         " active mask ", entry.mask,
                         " is empty or names lanes outside live mask ", live);
            stack.push_back(entry);
        }
        const auto at_barrier = r.get<uint8_t>();
        MLGS_REQUIRE(at_barrier <= 1, "corrupt checkpoint ", ckpt, ": warp ",
                     wp, " barrier flag ", unsigned(at_barrier),
                     " is not 0 or 1");
        cta->barrierFlags()[wp] = at_barrier;
        cta->instrCounts()[wp] = r.get<uint64_t>();
    }
    cta->shared() = r.getVector<uint8_t>();
    MLGS_REQUIRE(cta->shared().size() == kernel.shared_bytes,
                 "corrupt checkpoint ", ckpt, ": ", cta->shared().size(),
                 " bytes of shared memory, kernel ", kernel.name,
                 " declares ", kernel.shared_bytes);
    return cta;
}

// ---- writer ----

CheckpointWriter::CheckpointWriter(cuda::Context &ctx, CheckpointConfig cfg)
    : ctx_(&ctx), cfg_(std::move(cfg))
{
    ctx_->setLaunchHook([this](cuda::LaunchRecord &rec) { return onLaunch(rec); });
}

bool
CheckpointWriter::onLaunch(cuda::LaunchRecord &rec)
{
    if (reached_ || rec.launch_id > cfg_.kernel_x)
        return true; // everything after the checkpoint is skipped

    func::LaunchEnv env;
    env.kernel = rec.kernel;
    env.params = rec.params;
    env.symbols = &ctx_->symbols();
    env.textures = ctx_;

    auto &engine = ctx_->functionalEngine();

    if (rec.launch_id < cfg_.kernel_x) {
        rec.func_stats = engine.launch(env, rec.grid, rec.block);
        return true;
    }

    // Kernel x: CTAs < M run fully; CTAs M..M+t run y instructions per warp
    // and are serialized; CTAs beyond M+t are not executed.
    const uint64_t num_ctas = rec.grid.count();
    const uint64_t m = std::min(cfg_.cta_m, num_ctas);
    const uint64_t end_partial = std::min(m + cfg_.cta_t + 1, num_ctas);

    for (uint64_t c = 0; c < m; c++) {
        auto cta = engine.makeCta(env, rec.grid, rec.block, c);
        const bool done = engine.runCta(*cta, env);
        MLGS_ASSERT(done, "full CTA did not complete during checkpointing");
    }

    BinaryWriter w;
    w.putHeader(kMagic, kVersion);
    // Kernel identity: interned (module name, kernel name), shared with the
    // trace format (see trace::StringIntern).
    const int mod = ctx_->moduleIndexOf(rec.kernel);
    MLGS_REQUIRE(mod >= 0, "checkpointed kernel '", rec.kernel_name,
                 "' is not owned by a loaded module");
    trace::StringIntern names;
    const uint32_t module_sid = names.id(ctx_->module(mod).source_name);
    const uint32_t kernel_sid = names.id(rec.kernel_name);
    names.save(w);
    w.put<uint32_t>(module_sid);
    w.put<uint32_t>(kernel_sid);
    w.put<uint64_t>(cfg_.kernel_x);
    w.put<uint64_t>(m);
    w.put<uint32_t>(rec.grid.x);
    w.put<uint32_t>(rec.grid.y);
    w.put<uint32_t>(rec.grid.z);
    w.put<uint32_t>(rec.block.x);
    w.put<uint32_t>(rec.block.y);
    w.put<uint32_t>(rec.block.z);

    w.put<uint64_t>(end_partial - m);
    for (uint64_t c = m; c < end_partial; c++) {
        auto cta = engine.makeCta(env, rec.grid, rec.block, c);
        engine.runCta(*cta, env, cfg_.instr_y);
        saveCta(w, *cta);
    }

    // Data2: global memory after kernels < x and CTAs < M of kernel x.
    ctx_->memory().save(w);
    w.writeFile(cfg_.path);
    reached_ = true;
    return true;
}

// ---- loader ----

CheckpointLoader::CheckpointLoader(cuda::Context &ctx, const std::string &path)
    : ctx_(&ctx), path_(path)
{
    BinaryReader r = BinaryReader::fromFile(path);
    r.readHeader(kMagic, kVersion, kVersion, "checkpoint");
    trace::StringIntern names;
    names.load(r);
    const std::string module_name = names.str(r.get<uint32_t>());
    kernel_name_ = names.str(r.get<uint32_t>());
    kernel_x_ = r.get<uint64_t>();
    cta_m_ = r.get<uint64_t>();
    grid_.x = r.get<uint32_t>();
    grid_.y = r.get<uint32_t>();
    grid_.z = r.get<uint32_t>();
    block_.x = r.get<uint32_t>();
    block_.y = r.get<uint32_t>();
    block_.z = r.get<uint32_t>();

    const auto npartial = r.get<uint64_t>();
    // The CTA payloads reference the kernel, so the owning module must be
    // loaded before constructing the loader. Identity is the interned
    // (module, kernel) pair: resolve the module by name, then the kernel
    // within it (duplicate kernel names in other modules cannot shadow it).
    const ptx::KernelDef *kernel = nullptr;
    for (int h = 0; h < ctx_->moduleCount(); h++) {
        if (ctx_->module(h).source_name == module_name) {
            kernel = ctx_->getFunction(h, kernel_name_);
            break;
        }
    }
    if (!kernel) {
        // The recorded module is not loaded under that name (the replayed
        // host program may load its modules later, so the caller preloaded
        // the kernel under a placeholder name). Fall back to a unique
        // kernel-name match; ambiguity stays a hard error rather than a
        // guess.
        for (int h = 0; h < ctx_->moduleCount(); h++) {
            if (const auto *k = ctx_->getFunction(h, kernel_name_)) {
                MLGS_REQUIRE(!kernel, "ambiguous checkpoint kernel ",
                             kernel_name_, ": found in several loaded modules "
                             "and the recorded module ", module_name,
                             " is not loaded");
                kernel = k;
            }
        }
    }
    MLGS_REQUIRE(kernel, "load the PTX modules before the checkpoint: missing ",
                 kernel_name_, " in module ", module_name);
    for (uint64_t i = 0; i < npartial; i++) {
        auto cta = loadCta(r, *kernel, grid_, block_);
        BinaryWriter w;
        saveCta(w, *cta);
        raw_ctas_.push_back(w.bytes());
    }

    ctx_->memory().restore(r);
    // Keep a copy of the image: the replayed host program may overwrite
    // buffers (re-uploading inputs) before kernel x is reached, so the
    // image is restored again at resume time — the paper restores global
    // memory "for each kernel" for exactly this reason (Section III-F).
    BinaryWriter w;
    ctx_->memory().save(w);
    mem_image_ = w.bytes();
    ctx_->setLaunchHook([this](cuda::LaunchRecord &rec) { return onLaunch(rec); });
}

bool
CheckpointLoader::onLaunch(cuda::LaunchRecord &rec)
{
    if (rec.launch_id < kernel_x_)
        return true; // skipped: effects are in the restored memory image

    if (rec.launch_id > kernel_x_)
        return false; // normal execution in the context's current mode

    MLGS_REQUIRE(rec.kernel_name == kernel_name_,
                 "resume mismatch: expected kernel ", kernel_name_, ", got ",
                 rec.kernel_name);

    // Re-restore the checkpointed memory image (see constructor note).
    {
        BinaryReader r(mem_image_);
        ctx_->memory().restore(r);
    }

    func::LaunchEnv env;
    env.kernel = rec.kernel;
    env.params = rec.params;
    env.symbols = &ctx_->symbols();
    env.textures = ctx_;

    std::vector<std::unique_ptr<func::CtaExec>> preloaded;
    for (const auto &bytes : raw_ctas_) {
        BinaryReader r(bytes, path_);
        preloaded.push_back(loadCta(r, *rec.kernel, rec.grid, rec.block));
    }

    if (ctx_->mode() == cuda::SimMode::Performance) {
        rec.perf = ctx_->gpuModel().runKernelFrom(env, rec.grid, rec.block,
                                                  cta_m_, std::move(preloaded));
        rec.cycles = rec.perf.cycles;
    } else {
        auto &engine = ctx_->functionalEngine();
        const uint64_t num_ctas = rec.grid.count();
        for (uint64_t c = cta_m_; c < num_ctas; c++) {
            const uint64_t pidx = c - cta_m_;
            std::unique_ptr<func::CtaExec> cta;
            if (pidx < preloaded.size())
                cta = std::move(preloaded[pidx]);
            else
                cta = engine.makeCta(env, rec.grid, rec.block, c);
            const bool done = engine.runCta(*cta, env, UINT64_MAX,
                                            &rec.func_stats);
            MLGS_ASSERT(done, "resumed CTA did not complete");
        }
    }
    return true;
}

} // namespace mlgs::chkpt
