/**
 * @file
 * The Section III-D debugging methodology, end to end: record the workload
 * as a trace, inject a legacy functional bug (the untyped rem), observe
 * wrong application output, then localize it from the trace in three steps —
 * failing call, failing kernel (Fig 2), failing instruction (Fig 3) — plus
 * differential coverage analysis.
 *
 * Run: ./build/examples/debug_tool_demo
 */
#include <cstdio>
#include <optional>

#include "debug/debugger.h"
#include "trace/recorder.h"

using namespace mlgs;

namespace
{

const char *kRingShift = R"(
.visible .entry ring_shift(
    .param .u64 Src, .param .u64 Dst, .param .u32 n, .param .s32 k)
{
    .reg .u64 %rd<6>;
    .reg .u32 %r<8>;
    .reg .s32 %s<6>;
    .reg .f32 %f<3>;
    .reg .pred %p<3>;
    ld.param.u64 %rd1, [Src];
    ld.param.u64 %rd2, [Dst];
    ld.param.u32 %r1, [n];
    ld.param.s32 %s1, [k];
    mov.u32 %r2, %ctaid.x;
    mov.u32 %r3, %ntid.x;
    mov.u32 %r4, %tid.x;
    mad.lo.u32 %r5, %r2, %r3, %r4;
    setp.ge.u32 %p1, %r5, %r1;
    @%p1 bra DONE;
    cvt.s32.u32 %s2, %r5;
    sub.s32 %s3, %s2, %s1;
    cvt.s32.u32 %s4, %r1;
    rem.s32 %s5, %s3, %s4;
    setp.lt.s32 %p2, %s5, 0;
    @%p2 add.s32 %s5, %s5, %s4;
    cvt.u32.s32 %r6, %s5;
    mul.wide.u32 %rd3, %r6, 4;
    add.u64 %rd4, %rd1, %rd3;
    ld.global.f32 %f1, [%rd4];
    mul.wide.u32 %rd3, %r5, 4;
    add.u64 %rd5, %rd2, %rd3;
    st.global.f32 [%rd5], %f1;
DONE:
    ret;
}
)";

const char *kScale = R"(
.visible .entry scale_buf(.param .u64 Buf, .param .u32 n, .param .f32 a)
{
    .reg .u64 %rd<4>;
    .reg .u32 %r<6>;
    .reg .f32 %f<4>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [Buf];
    ld.param.u32 %r1, [n];
    ld.param.f32 %f1, [a];
    mov.u32 %r2, %ctaid.x;
    mov.u32 %r3, %ntid.x;
    mov.u32 %r4, %tid.x;
    mad.lo.u32 %r5, %r2, %r3, %r4;
    setp.ge.u32 %p1, %r5, %r1;
    @%p1 bra DONE;
    mul.wide.u32 %rd2, %r5, 4;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.f32 %f2, [%rd3];
    mul.f32 %f3, %f2, %f1;
    st.global.f32 [%rd3], %f3;
DONE:
    ret;
}
)";

/** Run the app under `bugs`; with a `trace`, record the run into it. */
std::vector<float>
runApp(const func::BugModel &bugs, trace::TraceFile *trace)
{
    const unsigned n = 100;
    cuda::ContextOptions opts;
    opts.bugs = bugs;
    cuda::Context ctx(opts);
    std::optional<trace::TraceRecorder> recorder;
    if (trace)
        recorder.emplace(ctx);
    ctx.loadModule(kScale, "scale.ptx");
    ctx.loadModule(kRingShift, "ring.ptx");
    const addr_t src = ctx.malloc(n * 4);
    const addr_t dst = ctx.malloc(n * 4);
    std::vector<float> host(n);
    for (unsigned i = 0; i < n; i++)
        host[i] = float(i + 1);
    ctx.memcpyH2D(src, host.data(), n * 4);
    cuda::KernelArgs a1;
    a1.ptr(src).u32(n).f32(2.0f);
    ctx.launch("scale_buf", Dim3(1), Dim3(128), a1);
    cuda::KernelArgs a2;
    a2.ptr(src).ptr(dst).u32(n).s32(5);
    ctx.launch("ring_shift", Dim3(1), Dim3(128), a2);
    ctx.deviceSynchronize();
    std::vector<float> out(n);
    ctx.memcpyD2H(out.data(), dst, n * 4);
    if (trace)
        *trace = recorder->finalize();
    return out;
}

} // namespace

int
main()
{
    func::BugModel buggy;
    buggy.legacy_rem = true; // the pre-fix GPGPU-Sim rem_impl

    // Record the workload once on the golden simulator; every later step
    // works from this trace alone (it could equally be a .mlgstrace file).
    trace::TraceFile trace;
    const auto good = runApp({}, &trace);
    debug::Replayer replayer(std::move(trace), func::BugModel{}, buggy);

    std::printf("=== Step 0: lint the PTX under suspicion (mlgs-lint) ===\n");
    const auto diags = replayer.lintModules();
    if (diags.empty()) {
        std::printf("all modules verify clean — the bug is in the simulator, "
                    "not the PTX; proceed to replay\n\n");
    } else {
        for (const auto &d : diags)
            std::printf("%s\n",
                        ptx::verifier::formatDiagnostic("<module>", d).c_str());
        std::printf("\n");
    }

    std::printf("=== Step 1: reproduce the failure ===\n");
    const auto bad = runApp(buggy, nullptr);
    unsigned wrong = 0;
    for (size_t i = 0; i < good.size(); i++)
        wrong += good[i] != bad[i];
    std::printf("application output: %u/%zu values wrong under the legacy "
                "functional model\n\n",
                wrong, good.size());

    std::printf("=== Step 2 (Fig 2): replay the trace, rerun each kernel "
                "from its pre-launch memory, compare ===\n");
    const auto kres = replayer.findFirstBadKernel();
    std::printf("first incorrect kernel: launch #%zu '%s' "
                "(buffer 0x%llx, first bad byte offset %zu)\n\n",
                kres.launch_index, kres.kernel_name.c_str(),
                (unsigned long long)kres.buffer_addr, kres.byte_offset);

    std::printf("=== Step 3 (Fig 3): instrument the kernel, log every "
                "register write, diff ===\n");
    const auto ires = replayer.localizeInstruction(kres.launch_index);
    std::printf("first divergent write: record %llu, pc %u, register %s\n",
                (unsigned long long)ires.record_index, ires.pc,
                ires.reg_name.c_str());
    std::printf("instruction:   %s\n", ires.instr_text.c_str());
    std::printf("golden value:  0x%llx\n",
                (unsigned long long)ires.golden_value);
    std::printf("suspect value: 0x%llx\n\n",
                (unsigned long long)ires.suspect_value);

    std::printf("=== Differential coverage (how the paper found the bfe "
                "bug) ===\n");
    func::CoverageMap regression, failing;
    {
        // Regression workload: just the scale kernel (simulates "known-good
        // regression tests").
        cuda::Context ctx;
        ctx.executor().setCoverage(&regression);
        ctx.loadModule(kScale, "scale.ptx");
        const addr_t buf = ctx.malloc(64 * 4);
        cuda::KernelArgs a;
        a.ptr(buf).u32(64).f32(1.5f);
        ctx.launch("scale_buf", Dim3(1), Dim3(64), a);
        ctx.deviceSynchronize();
    }
    {
        // Failing workload: scale + ring shift.
        cuda::Context ctx;
        ctx.executor().setCoverage(&failing);
        ctx.loadModule(kScale, "scale.ptx");
        ctx.loadModule(kRingShift, "ring.ptx");
        const addr_t src = ctx.malloc(100 * 4);
        const addr_t dst = ctx.malloc(100 * 4);
        cuda::KernelArgs a1;
        a1.ptr(src).u32(100).f32(2.0f);
        ctx.launch("scale_buf", Dim3(1), Dim3(128), a1);
        cuda::KernelArgs a2;
        a2.ptr(src).ptr(dst).u32(100).s32(5);
        ctx.launch("ring_shift", Dim3(1), Dim3(128), a2);
        ctx.deviceSynchronize();
    }
    std::printf("instruction variants exercised ONLY by the failing app:\n");
    for (const auto &v : failing.diff(regression))
        std::printf("  %s\n", v.c_str());
    return 0;
}
