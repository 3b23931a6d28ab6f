#include "trace/recorder.h"

#include "common/log.h"

namespace mlgs::trace
{

TraceRecorder::TraceRecorder(cuda::Context &ctx)
    : ctx_(&ctx), devices_(size_t(ctx.deviceCount())),
      current_(ctx.currentDevice())
{
    const auto &o = ctx.options();
    for (size_t d = 0; d < devices_.size(); d++) {
        auto &opt = devices_[d].trace.options;
        opt.mode = uint8_t(o.mode);
        opt.legacy_texture_name_map = o.legacy_texture_name_map;
        opt.memcpy_bytes_per_cycle = o.memcpy_bytes_per_cycle;
        opt.device_id = uint32_t(d);
        opt.device_count = uint32_t(devices_.size());
        opt.bugs = o.bugs;
        opt.gpu = o.gpu;
    }
    MLGS_REQUIRE(!ctx.apiObserver(),
                 "context already has an API observer attached");
    ctx.setApiObserver(this);
}

TraceRecorder::~TraceRecorder()
{
    detach();
}

void
TraceRecorder::detach()
{
    if (ctx_) {
        if (ctx_->apiObserver() == this)
            ctx_->setApiObserver(nullptr);
        if (warp_streams_)
            ctx_->executor().setWarpStreamRecord(nullptr);
    }
    ctx_ = nullptr;
}

void
TraceRecorder::captureWarpStreams()
{
    MLGS_REQUIRE(ctx_, "captureWarpStreams after detach");
    MLGS_REQUIRE(devices_.size() == 1,
                 "warp-stream capture records single-device contexts, not a ",
                 devices_.size(), "-device context");
    MLGS_REQUIRE(ctx_->options().mode == cuda::SimMode::Performance,
                 "warp-stream capture requires performance mode");
    if (!warp_streams_) {
        warp_streams_ = std::make_shared<func::WarpStreamCache>();
        ctx_->executor().setWarpStreamRecord(warp_streams_.get());
    }
}

TraceOp &
TraceRecorder::push(int device, OpCode code)
{
    auto &ops = devices_[size_t(device)].trace.ops;
    ops.emplace_back();
    ops.back().code = code;
    return ops.back();
}

TraceFile
TraceRecorder::finalize(int device) const
{
    MLGS_REQUIRE(device >= 0 && size_t(device) < devices_.size(),
                 "finalize of unknown device ", device);
    MLGS_REQUIRE(pending_peer_.empty(), "cannot finalize: ",
                 pending_peer_.size(), " peer op(s) have not executed yet — "
                 "synchronize every device before finalizing");
    const DeviceTrace &d = devices_[size_t(device)];
    TraceFile out = d.trace;
    for (size_t m = 0; m < out.modules.size(); m++) {
        if (m < d.module_used.size() && d.module_used[m]) {
            const auto &src = d.module_sources[m];
            out.modules[m].source_blob = out.blobs.put(src.data(), src.size());
        }
    }
    return out;
}

void
TraceRecorder::onModuleLoaded(int handle, const std::string &ptx_source,
                              const std::string &name)
{
    DeviceTrace &d = cur();
    MLGS_ASSERT(handle == int(d.trace.modules.size()),
                "module handles must be observed in order");
    TraceModule m;
    m.name_sid = d.trace.strings.id(name);
    for (const auto &g : ctx_->module(handle).globals) {
        const auto [bytes, align] = cuda::Context::globalAllocShape(g);
        m.global_allocs.emplace_back(bytes, align);
    }
    d.trace.modules.push_back(std::move(m));
    d.module_sources.push_back(ptx_source);
    d.module_used.push_back(false);

    push(OpCode::LoadModule).id = uint32_t(handle);
}

void
TraceRecorder::onMalloc(addr_t addr, size_t bytes, size_t align)
{
    auto &op = push(OpCode::Malloc);
    op.a = bytes;
    op.b = align;
    op.c = addr;
}

void
TraceRecorder::onFree(addr_t addr)
{
    push(OpCode::Free).a = addr;
}

void
TraceRecorder::onMemcpyH2D(addr_t dst, const void *src, size_t bytes,
                           unsigned stream_id)
{
    auto &op = push(OpCode::MemcpyH2D);
    op.a = dst;
    op.blob = cur().trace.blobs.put(src, bytes);
    op.stream = stream_id;
}

void
TraceRecorder::onMemcpyD2H(const void *result, addr_t src, size_t bytes,
                           unsigned stream_id)
{
    auto &op = push(OpCode::MemcpyD2H);
    op.a = src;
    op.b = bytes;
    op.blob = cur().trace.blobs.put(result, bytes);
    op.stream = stream_id;
}

void
TraceRecorder::onMemcpyD2D(addr_t dst, addr_t src, size_t bytes,
                           unsigned stream_id)
{
    auto &op = push(OpCode::MemcpyD2D);
    op.a = dst;
    op.b = src;
    op.c = bytes;
    op.stream = stream_id;
}

void
TraceRecorder::onMemset(addr_t dst, uint8_t value, size_t bytes,
                        unsigned stream_id)
{
    auto &op = push(OpCode::Memset);
    op.a = dst;
    op.b = bytes;
    op.u8 = value;
    op.stream = stream_id;
}

void
TraceRecorder::onMemcpyToSymbol(const std::string &name, addr_t addr,
                                const void *src, size_t bytes)
{
    auto &op = push(OpCode::MemcpyToSymbol);
    op.sid = cur().trace.strings.id(name);
    op.a = addr;
    op.blob = cur().trace.blobs.put(src, bytes);
}

void
TraceRecorder::onLaunch(int module_handle, const std::string &kernel,
                        const Dim3 &grid, const Dim3 &block,
                        const std::vector<uint8_t> &params, unsigned stream_id)
{
    DeviceTrace &d = cur();
    MLGS_REQUIRE(module_handle >= 0 &&
                     size_t(module_handle) < d.module_used.size(),
                 "launch of '", kernel, "' from unknown module");
    d.module_used[size_t(module_handle)] = true;
    d.launches++;

    auto &op = push(OpCode::Launch);
    op.id = uint32_t(module_handle);
    op.sid = d.trace.strings.id(kernel);
    op.grid = grid;
    op.block = block;
    op.blob = d.trace.blobs.put(params);
    op.stream = stream_id;
}

void
TraceRecorder::onCreateStream(unsigned stream_id)
{
    push(OpCode::CreateStream).id = stream_id;
}

void
TraceRecorder::onDestroyStream(unsigned stream_id)
{
    push(OpCode::DestroyStream).id = stream_id;
}

void
TraceRecorder::onCreateEvent(unsigned event_id)
{
    // Context event ids are global creation-order; a standalone per-device
    // trace needs them dense per device, so renumber on the way in.
    MLGS_ASSERT(event_id == event_map_.size(),
                "event ids must be observed in creation order");
    const unsigned local = cur().events++;
    event_map_.emplace_back(current_, local);
    push(OpCode::CreateEvent).id = local;
}

unsigned
TraceRecorder::localEvent(unsigned event_id, const char *use) const
{
    MLGS_REQUIRE(event_id < event_map_.size(), "unknown event ", event_id);
    const auto [device, local] = event_map_[event_id];
    MLGS_REQUIRE(device == current_, "event ", event_id, " belongs to device ",
                 device, " but is ", use, " device ", current_,
                 " — cross-device event use is not representable in "
                 "per-device traces");
    return local;
}

void
TraceRecorder::onRecordEvent(unsigned event_id, unsigned stream_id)
{
    const unsigned local = localEvent(event_id, "recorded on");
    auto &op = push(OpCode::RecordEvent);
    op.id = local;
    op.stream = stream_id;
}

void
TraceRecorder::onWaitEvent(unsigned stream_id, unsigned event_id)
{
    const unsigned local = localEvent(event_id, "waited on from");
    auto &op = push(OpCode::WaitEvent);
    op.id = local;
    op.stream = stream_id;
}

void
TraceRecorder::onStreamSynchronize(unsigned stream_id)
{
    push(OpCode::StreamSync).stream = stream_id;
}

void
TraceRecorder::onDeviceSynchronize()
{
    push(OpCode::DeviceSync);
}

void
TraceRecorder::onSetDevice(int device)
{
    // Routing state only: per-device traces are standalone single-device
    // workloads, so no op is recorded.
    current_ = device;
}

void
TraceRecorder::onMemcpyPeer(addr_t dst, int dst_device, unsigned dst_stream,
                            addr_t src, int src_device, unsigned src_stream,
                            size_t bytes, uint64_t send_seq, uint64_t recv_seq)
{
    // Key each half by its api_seq so onPeerOpExecuted() can back-patch it.
    pending_peer_.emplace(
        send_seq, std::make_pair(src_device,
                                 devices_[size_t(src_device)].trace.ops.size()));
    auto &send = push(src_device, OpCode::PeerSend);
    send.a = src;
    send.b = bytes;
    send.id = uint32_t(dst_device);
    send.stream = src_stream;

    pending_peer_.emplace(
        recv_seq, std::make_pair(dst_device,
                                 devices_[size_t(dst_device)].trace.ops.size()));
    auto &recv = push(dst_device, OpCode::PeerRecv);
    recv.a = dst;
    recv.b = bytes;
    recv.id = uint32_t(src_device);
    recv.stream = dst_stream;
}

void
TraceRecorder::onPeerOpExecuted(uint64_t seq, cycle_t complete_cycle,
                                const std::vector<uint8_t> *payload)
{
    const auto it = pending_peer_.find(seq);
    MLGS_REQUIRE(it != pending_peer_.end(),
                 "peer op ", seq, " executed but was never recorded");
    const auto [device, index] = it->second;
    pending_peer_.erase(it);

    TraceFile &t = devices_[size_t(device)].trace;
    TraceOp &op = t.ops[index];
    op.c = complete_cycle;
    if (payload) {
        MLGS_ASSERT(op.code == OpCode::PeerRecv,
                    "payload delivered for a non-receive peer op");
        op.blob = t.blobs.put(payload->data(), payload->size());
    }
}

void
TraceRecorder::onRegisterTexture(const std::string &name, int texref)
{
    auto &op = push(OpCode::RegisterTexture);
    op.sid = cur().trace.strings.id(name);
    op.id = uint32_t(texref);
}

void
TraceRecorder::onMallocArray(unsigned array_id, unsigned width,
                             unsigned height, unsigned channels, addr_t addr)
{
    auto &op = push(OpCode::MallocArray);
    op.id = array_id;
    op.a = addr;
    op.b = width;
    op.c = height;
    op.d = channels;
}

void
TraceRecorder::onFreeArray(unsigned array_id)
{
    push(OpCode::FreeArray).id = array_id;
}

void
TraceRecorder::onMemcpyToArray(unsigned array_id, const float *src,
                               size_t count)
{
    auto &op = push(OpCode::MemcpyToArray);
    op.id = array_id;
    op.blob = cur().trace.blobs.put(src, count * sizeof(float));
}

void
TraceRecorder::onBindTextureToArray(int texref, unsigned array_id,
                                    func::TexAddressMode mode)
{
    auto &op = push(OpCode::BindTextureToArray);
    op.id = uint32_t(texref);
    op.b = array_id;
    op.u8 = uint8_t(mode);
}

void
TraceRecorder::onBindTextureLinear(int texref, addr_t ptr, unsigned width,
                                   unsigned channels, func::TexAddressMode mode)
{
    auto &op = push(OpCode::BindTextureLinear);
    op.id = uint32_t(texref);
    op.a = ptr;
    op.b = width;
    op.c = channels;
    op.u8 = uint8_t(mode);
}

void
TraceRecorder::onUnbindTexture(int texref)
{
    push(OpCode::UnbindTexture).id = uint32_t(texref);
}

} // namespace mlgs::trace
