/**
 * @file
 * TraceRecorder: an ApiObserver that serializes the complete device-visible
 * workload of a Context into one .mlgstrace per device. Attach it before the
 * frontend (cudnn/blas/torchlet handles) is constructed so module loads are
 * captured; run the workload; call finalize(). The resulting trace replays
 * through TraceReplayer with bitwise-identical timing totals, DRAM bank
 * statistics and AerialVision samples — and without any frontend code.
 *
 * On a multi-GPU context every device-scoped API call is routed to the trace
 * of the context's current device, so frontends must follow the
 * cudaSetDevice discipline of making each call with its target device
 * current (as CudnnHandle, nccl::Communicator and torchlet do).
 *
 * Cross-device traffic (cudaMemcpyPeer) splits into a PeerSend op in the
 * source device's trace and a PeerRecv op in the destination's. Both are
 * back-patched when the op actually executes on its engine: the resolved
 * completion cycle, and for receives the transferred payload, are written
 * into the op so each device's trace replays standalone — no live peer, no
 * link fabric — with bitwise-identical timing totals and memory effects.
 *
 * Event ids are renumbered per device (Context event ids are global
 * creation-order); streams are already per-device. Cross-device event use
 * is rejected: it cannot be represented in a standalone per-device trace.
 */
#ifndef MLGS_TRACE_RECORDER_H
#define MLGS_TRACE_RECORDER_H

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "func/warp_stream.h"
#include "runtime/api_observer.h"
#include "runtime/context.h"
#include "trace/trace_format.h"

namespace mlgs::trace
{

class TraceRecorder final : public cuda::ApiObserver
{
  public:
    /** Attaches itself to `ctx` and snapshots its options; one trace per
     *  device of `ctx` is started up front, so attach before any module
     *  loads. */
    explicit TraceRecorder(cuda::Context &ctx);
    ~TraceRecorder() override;

    TraceRecorder(const TraceRecorder &) = delete;
    TraceRecorder &operator=(const TraceRecorder &) = delete;

    /** Stop observing (finalize() may still be called afterwards). */
    void detach();

    /**
     * Also capture the run's warp instruction streams (single-device
     * performance-mode contexts only; call before the workload runs). The
     * captured streams feed TraceReplayer::replayTimingOnly for cheap
     * repeated replays in the same process; they are not part of the
     * .mlgstrace file.
     */
    void captureWarpStreams();

    /** Captured streams (null unless captureWarpStreams() was enabled). */
    std::shared_ptr<const func::WarpStreamCache>
    warpStreams() const
    {
        return warp_streams_;
    }

    /**
     * Finalized standalone trace of one device. Module sources are elided
     * for modules no launch referenced; everything else is kept verbatim.
     * Requires every recorded peer op to have executed — synchronize all
     * devices first.
     */
    TraceFile finalize(int device = 0) const;

    uint64_t
    launchCount(int device = 0) const
    {
        return devices_.at(size_t(device)).launches;
    }

    // ---- ApiObserver (routed to the current device's trace) ----
    void onModuleLoaded(int handle, const std::string &ptx_source,
                        const std::string &name) override;
    void onMalloc(addr_t addr, size_t bytes, size_t align) override;
    void onFree(addr_t addr) override;
    void onMemcpyH2D(addr_t dst, const void *src, size_t bytes,
                     unsigned stream_id) override;
    void onMemcpyD2H(const void *result, addr_t src, size_t bytes,
                     unsigned stream_id) override;
    void onMemcpyD2D(addr_t dst, addr_t src, size_t bytes,
                     unsigned stream_id) override;
    void onMemset(addr_t dst, uint8_t value, size_t bytes,
                  unsigned stream_id) override;
    void onMemcpyToSymbol(const std::string &name, addr_t addr,
                          const void *src, size_t bytes) override;
    void onLaunch(int module_handle, const std::string &kernel,
                  const Dim3 &grid, const Dim3 &block,
                  const std::vector<uint8_t> &params,
                  unsigned stream_id) override;
    void onCreateStream(unsigned stream_id) override;
    void onDestroyStream(unsigned stream_id) override;
    void onCreateEvent(unsigned event_id) override;
    void onRecordEvent(unsigned event_id, unsigned stream_id) override;
    void onWaitEvent(unsigned stream_id, unsigned event_id) override;
    void onStreamSynchronize(unsigned stream_id) override;
    void onDeviceSynchronize() override;
    void onSetDevice(int device) override;
    void onMemcpyPeer(addr_t dst, int dst_device, unsigned dst_stream,
                      addr_t src, int src_device, unsigned src_stream,
                      size_t bytes, uint64_t send_seq,
                      uint64_t recv_seq) override;
    void onPeerOpExecuted(uint64_t seq, cycle_t complete_cycle,
                          const std::vector<uint8_t> *payload) override;
    void onRegisterTexture(const std::string &name, int texref) override;
    void onMallocArray(unsigned array_id, unsigned width, unsigned height,
                       unsigned channels, addr_t addr) override;
    void onFreeArray(unsigned array_id) override;
    void onMemcpyToArray(unsigned array_id, const float *src,
                         size_t count) override;
    void onBindTextureToArray(int texref, unsigned array_id,
                              func::TexAddressMode mode) override;
    void onBindTextureLinear(int texref, addr_t ptr, unsigned width,
                             unsigned channels,
                             func::TexAddressMode mode) override;
    void onUnbindTexture(int texref) override;

  private:
    /** Everything recorded for one device of the context. */
    struct DeviceTrace
    {
        TraceFile trace;
        /** PTX sources by module handle; interned into blobs at
         *  finalize(). */
        std::vector<std::string> module_sources;
        std::vector<bool> module_used;
        uint64_t launches = 0;
        unsigned events = 0; ///< next dense per-device event id
    };

    DeviceTrace &cur() { return devices_[size_t(current_)]; }
    TraceOp &push(OpCode code) { return push(current_, code); }
    TraceOp &push(int device, OpCode code);
    /** Dense per-device id of global event `event_id`; rejects its use
     *  (`use`: "recorded on" / "waited on from") on any device but the
     *  one that created it. */
    unsigned localEvent(unsigned event_id, const char *use) const;

    cuda::Context *ctx_;
    std::vector<DeviceTrace> devices_;
    int current_ = 0;
    /** Global event id -> (creating device, dense per-device id). */
    std::vector<std::pair<int, unsigned>> event_map_;
    /** Peer-op api_seq -> (device, op index) awaiting execution patch. */
    std::map<uint64_t, std::pair<int, size_t>> pending_peer_;
    std::shared_ptr<func::WarpStreamCache> warp_streams_;
};

} // namespace mlgs::trace

#endif // MLGS_TRACE_RECORDER_H
