#include "trace/replayer.h"

#include <cstring>
#include <sstream>
#include <unordered_map>

#include "common/log.h"
#include "sample/sampled_backend.h"

namespace mlgs::trace
{

cuda::ContextOptions
TraceReplayer::options() const
{
    cuda::ContextOptions o;
    o.mode = cuda::SimMode(trace_.options.mode);
    o.bugs = trace_.options.bugs;
    o.gpu = trace_.options.gpu;
    o.legacy_texture_name_map = trace_.options.legacy_texture_name_map;
    o.memcpy_bytes_per_cycle = trace_.options.memcpy_bytes_per_cycle;
    // Replay is the golden-stats path: pin the detailed cycle model so a
    // stray MLGS_TIMING in the environment can't perturb replayed stats.
    // Callers comparing timing modes override this explicitly.
    o.timing_mode = sample::TimingMode::Detailed;
    return o;
}

ReplayResult
TraceReplayer::replay(cuda::Context &ctx) const
{
    return replayImpl(ctx, nullptr, nullptr);
}

ReplayResult
TraceReplayer::replayCapturing(cuda::Context &ctx,
                               func::WarpStreamCache &capture) const
{
    MLGS_REQUIRE(ctx.options().mode == cuda::SimMode::Performance,
                 "warp-stream capture requires performance mode");
    return replayImpl(ctx, &capture, nullptr);
}

ReplayResult
TraceReplayer::replayTimingOnly(cuda::Context &ctx,
                                const func::WarpStreamCache &streams) const
{
    MLGS_REQUIRE(ctx.options().mode == cuda::SimMode::Performance,
                 "warp-stream replay requires performance mode");
    return replayImpl(ctx, nullptr, &streams);
}

ReplayResult
TraceReplayer::replayImpl(cuda::Context &ctx, func::WarpStreamCache *record,
                          const func::WarpStreamCache *replay_streams) const
{
    ReplayResult res;

    // Attach the warp-stream hooks for the duration of the replay.
    MLGS_REQUIRE(!(record && replay_streams),
                 "cannot capture and replay warp streams at once");
    ctx.executor().setWarpStreamRecord(record);
    ctx.executor().setWarpStreamReplay(replay_streams);
    struct HookGuard
    {
        cuda::Context *ctx;
        ~HookGuard()
        {
            ctx->executor().setWarpStreamRecord(nullptr);
            ctx->executor().setWarpStreamReplay(nullptr);
        }
    } guard{&ctx};

    // Trace module index -> context module handle (-1 when source elided).
    std::vector<int> module_handles;
    std::unordered_map<unsigned, cuda::Stream *> streams;
    streams.emplace(0u, ctx.defaultStream());
    std::vector<cuda::Event *> events;
    std::vector<cuda::TexArray *> arrays;
    std::vector<uint8_t> scratch;

    const auto stream_of = [&](unsigned id) {
        const auto it = streams.find(id);
        MLGS_REQUIRE(it != streams.end(), "trace replay: op references stream ",
                     id, " which does not exist at this point");
        return it->second;
    };

    for (size_t i = 0; i < trace_.ops.size(); i++) {
        const TraceOp &op = trace_.ops[i];
        res.ops++;
        switch (op.code) {
          case OpCode::LoadModule: {
            MLGS_REQUIRE(op.id < trace_.modules.size(),
                         "trace replay: op ", i, " loads unknown module ",
                         op.id);
            const TraceModule &m = trace_.modules[op.id];
            if (m.source_blob != kNoBlob) {
                const auto &src = trace_.blobs.blob(m.source_blob);
                const int handle = ctx.loadModule(
                    std::string(src.begin(), src.end()),
                    trace_.strings.str(m.name_sid));
                module_handles.push_back(handle);
            } else {
                // Source elided: no launch references this module, so only
                // its allocator effects matter for address fidelity.
                for (const auto &[bytes, align] : m.global_allocs)
                    ctx.allocator().alloc(bytes, align);
                module_handles.push_back(-1);
                res.modules_elided++;
            }
            break;
          }
          case OpCode::Malloc: {
            const addr_t addr = ctx.malloc(op.a, op.b);
            MLGS_REQUIRE(addr == op.c, "trace replay diverged at op ", i,
                         ": malloc(", op.a, ", ", op.b, ") returned ", addr,
                         ", trace recorded ", op.c);
            break;
          }
          case OpCode::Free:
            ctx.free(op.a);
            break;
          case OpCode::MemcpyH2D: {
            const auto &payload = trace_.blobs.blob(op.blob);
            ctx.memcpyH2D(op.a, payload.data(), payload.size(),
                          stream_of(op.stream));
            break;
          }
          case OpCode::MemcpyD2H: {
            const auto &expect = trace_.blobs.blob(op.blob);
            MLGS_REQUIRE(expect.size() == op.b, "corrupt trace: op ", i,
                         " D2H size mismatch");
            scratch.resize(op.b);
            ctx.memcpyD2H(scratch.data(), op.a, op.b, stream_of(op.stream));
            // Timing-only replay never executes functional stores, so the
            // copied-back bytes are meaningless; the copy itself still runs
            // for its timing effect, but verification is skipped.
            if (!replay_streams) {
                MLGS_REQUIRE(
                    op.b == 0 || std::memcmp(scratch.data(), expect.data(),
                                             op.b) == 0,
                    "trace replay diverged at op ", i, ": D2H of ", op.b,
                    " bytes from 0x", std::hex, op.a, std::dec,
                    " does not match the recorded payload");
                res.verified_bytes += op.b;
            }
            break;
          }
          case OpCode::MemcpyD2D:
            ctx.memcpyD2D(op.a, op.b, op.c, stream_of(op.stream));
            break;
          case OpCode::Memset:
            ctx.memsetD(op.a, op.u8, op.b, stream_of(op.stream));
            break;
          case OpCode::MemcpyToSymbol: {
            // Write at the recorded address: works even when the owning
            // module's source (and thus its symbol table) was elided.
            const auto &payload = trace_.blobs.blob(op.blob);
            ctx.memory().write(op.a, payload.data(), payload.size());
            break;
          }
          case OpCode::Launch: {
            MLGS_REQUIRE(op.id < module_handles.size(),
                         "trace replay: op ", i, " launches from unloaded "
                         "module ", op.id);
            const int handle = module_handles[op.id];
            MLGS_REQUIRE(handle >= 0, "corrupt trace: op ", i,
                         " launches from a module whose source was elided");
            const auto &name = trace_.strings.str(op.sid);
            const ptx::KernelDef *kernel = ctx.getFunction(handle, name);
            MLGS_REQUIRE(kernel, "trace replay: kernel '", name,
                         "' not found in its recorded module");
            cuda::KernelArgs args;
            args.raw(trace_.blobs.blob(op.blob));
            ctx.cuLaunchKernel(kernel, op.grid, op.block, args,
                               stream_of(op.stream));
            res.launches++;
            break;
          }
          case OpCode::CreateStream: {
            cuda::Stream *s = ctx.createStream();
            MLGS_REQUIRE(s->id() == op.id, "trace replay diverged at op ", i,
                         ": createStream returned id ", s->id(),
                         ", trace recorded ", op.id);
            streams.emplace(op.id, s);
            break;
          }
          case OpCode::DestroyStream:
            ctx.destroyStream(stream_of(op.id));
            streams.erase(op.id);
            break;
          case OpCode::CreateEvent: {
            MLGS_REQUIRE(op.id == events.size(),
                         "trace replay diverged at op ", i,
                         ": event ids out of order");
            events.push_back(ctx.createEvent());
            break;
          }
          case OpCode::RecordEvent:
            MLGS_REQUIRE(op.id < events.size(), "trace replay: op ", i,
                         " records unknown event ", op.id);
            ctx.recordEvent(events[op.id], stream_of(op.stream));
            break;
          case OpCode::WaitEvent:
            MLGS_REQUIRE(op.id < events.size(), "trace replay: op ", i,
                         " waits on unknown event ", op.id);
            ctx.streamWaitEvent(stream_of(op.stream), events[op.id]);
            break;
          case OpCode::StreamSync:
            ctx.streamSynchronize(stream_of(op.stream));
            break;
          case OpCode::DeviceSync:
            ctx.deviceSynchronize();
            break;
          case OpCode::RegisterTexture: {
            const int texref =
                ctx.registerTexture(trace_.strings.str(op.sid));
            MLGS_REQUIRE(texref == int(op.id),
                         "trace replay diverged at op ", i,
                         ": registerTexture returned ", texref,
                         ", trace recorded ", op.id);
            break;
          }
          case OpCode::MallocArray: {
            MLGS_REQUIRE(op.id == arrays.size(),
                         "trace replay diverged at op ", i,
                         ": array ids out of order");
            cuda::TexArray *arr = ctx.mallocArray(unsigned(op.b),
                                                  unsigned(op.c),
                                                  unsigned(op.d));
            MLGS_REQUIRE(arr->addr == op.a, "trace replay diverged at op ", i,
                         ": mallocArray placed at ", arr->addr,
                         ", trace recorded ", op.a);
            arrays.push_back(arr);
            break;
          }
          case OpCode::FreeArray:
            MLGS_REQUIRE(op.id < arrays.size(), "trace replay: op ", i,
                         " frees unknown array ", op.id);
            ctx.freeArray(arrays[op.id]);
            break;
          case OpCode::MemcpyToArray: {
            MLGS_REQUIRE(op.id < arrays.size(), "trace replay: op ", i,
                         " copies to unknown array ", op.id);
            const auto &payload = trace_.blobs.blob(op.blob);
            ctx.memcpyToArray(arrays[op.id],
                              reinterpret_cast<const float *>(payload.data()),
                              payload.size() / sizeof(float));
            break;
          }
          case OpCode::BindTextureToArray:
            MLGS_REQUIRE(op.b < arrays.size(), "trace replay: op ", i,
                         " binds unknown array ", op.b);
            ctx.bindTextureToArray(int(op.id), arrays[size_t(op.b)],
                                   func::TexAddressMode(op.u8));
            break;
          case OpCode::BindTextureLinear:
            ctx.bindTextureLinear(int(op.id), op.a, unsigned(op.b),
                                  unsigned(op.c),
                                  func::TexAddressMode(op.u8));
            break;
          case OpCode::UnbindTexture:
            ctx.unbindTexture(int(op.id));
            break;
          case OpCode::PeerSend:
            // Recorded completion cycle stands in for the link fabric: the
            // lone replaying device reproduces its half of the exchange.
            ctx.replayPeerSend(op.a, op.b, int(op.id), op.c,
                               stream_of(op.stream));
            break;
          case OpCode::PeerRecv: {
            const auto &payload = trace_.blobs.blob(op.blob);
            MLGS_REQUIRE(payload.size() == op.b, "corrupt trace: op ", i,
                         " peer-recv payload size mismatch");
            ctx.replayPeerRecv(op.a, payload, int(op.id), op.c,
                               stream_of(op.stream));
            break;
          }
        }
    }
    return res;
}

std::string
statsJson(cuda::Context &ctx)
{
    const timing::TimingTotals &t = ctx.gpuModel().totals();
    std::ostringstream os;
    os << "{\n";
    os << "  \"elapsed_cycles\": " << ctx.elapsedCycles() << ",\n";
    os << "  \"totals\": {\n";
    const char *sep = "";
    for (const auto &c : timing::kTimingCounters) {
        os << sep << "    \"" << c.name << "\": " << t.*c.member;
        sep = ",\n";
    }
    os << "\n  },\n";
    const auto hits = ctx.gpuModel().perBankRowHits();
    const auto misses = ctx.gpuModel().perBankRowMisses();
    os << "  \"dram_bank_row_hits\": [";
    for (size_t i = 0; i < hits.size(); i++)
        os << (i ? ", " : "") << hits[i];
    os << "],\n";
    os << "  \"dram_bank_row_misses\": [";
    for (size_t i = 0; i < misses.size(); i++)
        os << (i ? ", " : "") << misses[i];
    os << "]";
    // The sampling section exists only under Sampled timing, so
    // detailed-mode output stays byte-identical to what it always was.
    if (const auto *sb = ctx.sampledBackend())
        os << ",\n  \"sampling\": " << sample::reportJson(sb->report(), 2);
    os << "\n}\n";
    return os.str();
}

} // namespace mlgs::trace
