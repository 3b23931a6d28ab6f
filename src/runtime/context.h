/**
 * @file
 * The simulated CUDA runtime/driver ("libcudart" + "libcuda"): device memory,
 * per-PTX-file module registry, kernel launch via both the Runtime-API path
 * (by name, cudaLaunch style) and the Driver-API path (by function handle,
 * cuLaunchKernel — added by the paper for the debug tool), streams with
 * events and cudaStreamWaitEvent, and the texture-binding machinery with the
 * paper's name->{texref set} fix.
 *
 * One Context hosts `device_count` fully independent simulated GPUs behind a
 * cudaSetDevice-style device table: each device owns its memory, allocator,
 * functional executor, timing model, module registry, texture state and
 * DeviceEngine.
 * Peer-to-peer copies (cudaMemcpyPeer-style) travel over a link::Fabric
 * interconnect model and are the only cross-device coupling.
 *
 * Execution itself lives one layer down: Context translates API calls into
 * engine::Stream ops and hands them to the owning device's
 * engine::DeviceEngine driving a mode-appropriate engine::ExecBackend
 * (functional execution or the cycle-level timing model with concurrent
 * kernel residency).
 */
#ifndef MLGS_RUNTIME_CONTEXT_H
#define MLGS_RUNTIME_CONTEXT_H

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "engine/device_engine.h"
#include "engine/exec_backend.h"
#include "func/engine.h"
#include "link/fabric.h"
#include "mem/allocator.h"
#include "mem/gpu_memory.h"
#include "power/power_model.h"
#include "ptx/parser.h"
#include "runtime/kernel_args.h"
#include "sample/options.h"
#include "stats/aerial.h"
#include "timing/gpu.h"

namespace mlgs::engine
{
class TimingBackend;
} // namespace mlgs::engine

namespace mlgs::sample
{
class SampledBackend;
} // namespace mlgs::sample

namespace mlgs::cuda
{

class ApiObserver;

/** Functional vs Performance simulation (Section III-F terminology). */
enum class SimMode { Functional, Performance };

/** Static PTX verification policy applied to every loadModule. */
enum class PtxVerify
{
    Off,    ///< no verification
    Warn,   ///< run the verifier, log diagnostics, keep going
    Strict, ///< fatal on any diagnostic of severity warning or above
};

// Device-side work descriptors are owned by the engine layer; the cuda::
// names remain the public API.
using Event = engine::Event;
using Stream = engine::Stream;
using LaunchRecord = engine::LaunchRecord;

/** Runtime configuration knobs. */
struct ContextOptions
{
    SimMode mode = SimMode::Functional;
    func::BugModel bugs;
    timing::GpuConfig gpu;

    /**
     * How launches are timed in performance mode: every launch through the
     * cycle model (Detailed — the default, bitwise-unchanged behaviour), or
     * clustered by signature with only cluster representatives
     * cycle-simulated and the rest fast-forwarded (Sampled). Auto resolves
     * from MLGS_TIMING, defaulting to Detailed. Ignored in functional mode.
     */
    sample::TimingMode timing_mode = sample::TimingMode::Auto;

    /** Knobs of the sampled timing mode. */
    sample::SamplingOptions sampling;

    /**
     * Pre-fix texture behaviour: a texture name maps to a single texref, so
     * re-registering the same name loses the previous binding (the failure
     * MNIST exposed, Section III-C). Off = fixed behaviour.
     */
    bool legacy_texture_name_map = false;

    /** Capture launch inputs (params + pointed-to buffers) for replay. */
    bool capture_launches = false;

    /** Host<->device copy throughput used for stream-overlap timing. */
    double memcpy_bytes_per_cycle = 8.0;

    /**
     * Run the static PTX verifier (type/width consistency, def-before-use,
     * barrier divergence, shared-memory races) over every module at load —
     * "step zero" of the debug methodology, before anything executes.
     */
    PtxVerify verify_ptx = PtxVerify::Off;

    /**
     * Dynamically confirm shared-memory races in functional mode: per-byte
     * last-writer/last-reader shadow state between bar.syncs. Confirmed
     * conflicts are logged and counted in FuncStats::shared_races; all
     * other stats and every simulated byte are unaffected.
     */
    bool check_races = false;

    /**
     * Host worker threads for functional CTA fan-out: functional mode and
     * the functionally fast-forwarded launches of sampled timing. Detailed
     * timing steps its cores on the calling thread at any setting. 0 = auto
     * (MLGS_SIM_THREADS env var, else hardware concurrency); 1 = exact
     * legacy serial path. Results are bitwise identical at any setting.
     * Multi-GPU contexts share one pool across all devices.
     */
    unsigned sim_threads = 0;

    /** Number of simulated GPUs hosted by this context (>= 1). */
    int device_count = 1;

    /** Shape of every directed inter-GPU link (multi-GPU only). */
    link::LinkConfig link;
};

/** A 2D cudaArray backing texture fetches (f32 texels). */
struct TexArray
{
    addr_t addr = 0;
    unsigned width = 0;
    unsigned height = 1;
    unsigned channels = 1;
};

/** Captured buffer snapshot for kernel replay (debug tool). */
struct CapturedBuffer
{
    addr_t addr = 0;
    std::vector<uint8_t> data;
};

/** Captured launch = record + input-buffer snapshots (Fig 2 data). */
struct CapturedLaunch
{
    LaunchRecord record;
    std::vector<CapturedBuffer> buffers; ///< contents BEFORE the launch
};

/** The simulated device context. */
class Context : public func::TextureProvider
{
  public:
    explicit Context(ContextOptions opts = ContextOptions{});
    ~Context() override;

    Context(const Context &) = delete;
    Context &operator=(const Context &) = delete;

    // ---- mode ----
    SimMode mode() const { return opts_.mode; }
    void attachSampler(stats::AerialSampler *s);

    /** Resolved timing mode (always Detailed in functional mode). */
    sample::TimingMode timingMode() const { return resolved_timing_; }

    /** The sampling backend of the current device (null when Detailed). */
    sample::SampledBackend *sampledBackend() { return dev().sampled_backend; }
    const sample::SampledBackend *sampledBackend() const
    {
        return dev().sampled_backend;
    }

    // ---- device table ----
    int deviceCount() const { return int(devices_.size()); }
    /** cudaSetDevice: all device-scoped calls target the current device. */
    void setDevice(int device);
    int currentDevice() const { return current_; }
    /**
     * cudaDeviceEnablePeerAccess: allow P2P transfers sourced on the current
     * device and landing on `peer`. Directional — enable both ways for
     * bidirectional traffic.
     */
    void enablePeerAccess(int peer);
    /**
     * Tear a device down: drains it, then marks it unusable. Its memory and
     * statistics stay readable through the indexed accessors; any further
     * API call routed to it fails fatally.
     */
    void destroyDevice(int device);
    /** The inter-GPU interconnect model (present for any device_count). */
    link::Fabric &fabric() { return *fabric_; }

    /**
     * cudaMemcpyPeer: copy `bytes` from `src` on `src_device` to `dst` on
     * `dst_device` over the link fabric. The copy is modeled as a send op on
     * `src_stream` (default stream of the source device when null) and a
     * receive op on `dst_stream` (likewise for the destination device); the
     * receive completes when the last byte crosses the link. Requires peer
     * access enabled from the source device to the destination device.
     */
    void memcpyPeer(addr_t dst, int dst_device, addr_t src, int src_device,
                    size_t bytes, Stream *dst_stream = nullptr,
                    Stream *src_stream = nullptr);

    // ---- memory ----
    addr_t malloc(size_t bytes, size_t align = 256);
    void free(addr_t ptr);
    void memcpyH2D(addr_t dst, const void *src, size_t bytes,
                   Stream *stream = nullptr);
    void memcpyD2H(void *dst, addr_t src, size_t bytes, Stream *stream = nullptr);
    void memcpyD2D(addr_t dst, addr_t src, size_t bytes,
                   Stream *stream = nullptr);
    void memsetD(addr_t dst, uint8_t value, size_t bytes,
                 Stream *stream = nullptr);

    // ---- modules ("one per embedded PTX file") ----
    int loadModule(const std::string &ptx_source, const std::string &name);
    const ptx::Module &module(int handle) const;

    /** Driver-API style lookup within one module (duplicate-safe). */
    const ptx::KernelDef *getFunction(int module_handle,
                                      const std::string &kernel) const;

    /** Runtime-API style lookup across modules (first registration wins). */
    const ptx::KernelDef *findKernel(const std::string &kernel) const;

    // ---- launch ----
    /** cudaLaunch-style: by name. */
    void launch(const std::string &kernel, const Dim3 &grid, const Dim3 &block,
                const KernelArgs &args, Stream *stream = nullptr);

    /** cuLaunchKernel-style: by function handle (debug-tool replay path). */
    void cuLaunchKernel(const ptx::KernelDef *kernel, const Dim3 &grid,
                        const Dim3 &block, const KernelArgs &args,
                        Stream *stream = nullptr);

    // ---- streams & events ----
    Stream *createStream();
    void destroyStream(Stream *s);
    Stream *defaultStream() { return dev().engine->defaultStream(); }
    Event *createEvent();
    void recordEvent(Event *e, Stream *stream = nullptr);
    /** cudaStreamWaitEvent: stream blocks until the event is recorded. */
    void streamWaitEvent(Stream *stream, Event *e);
    void streamSynchronize(Stream *stream);
    void deviceSynchronize();

    // ---- textures ----
    /** __cudaRegisterTexture: returns a texref handle; names may repeat. */
    int registerTexture(const std::string &name);
    TexArray *mallocArray(unsigned width, unsigned height, unsigned channels);
    void freeArray(TexArray *arr);
    void memcpyToArray(TexArray *arr, const float *src, size_t count);
    void bindTextureToArray(int texref, TexArray *arr,
                            func::TexAddressMode mode =
                                func::TexAddressMode::Clamp);
    void bindTextureLinear(int texref, addr_t ptr, unsigned width,
                           unsigned channels = 1,
                           func::TexAddressMode mode =
                               func::TexAddressMode::Clamp);
    void unbindTexture(int texref);

    /** TextureProvider: name-keyed lookup used by tex instructions. */
    const func::TexBinding *lookupTexture(const std::string &name) const override;

    // ---- module symbols ----
    addr_t getSymbolAddress(const std::string &name) const;
    void memcpyToSymbol(const std::string &name, const void *src, size_t bytes);

    // ---- launch interception (checkpointing, Fig 5) ----
    /**
     * Hook called before a launch executes; returning true marks the launch
     * handled (the normal execution path is skipped). Used by the
     * checkpoint writer/loader to fast-forward or skip kernels.
     */
    using LaunchHook = std::function<bool(LaunchRecord &)>;
    void setLaunchHook(LaunchHook hook) { launch_hook_ = std::move(hook); }

    // ---- API observation (trace capture, src/trace) ----
    /**
     * Register (or clear with nullptr) an observer that sees every
     * device-visible API call in order. At most one observer is active; the
     * caller keeps ownership and must outlive the context or detach first.
     */
    void setApiObserver(ApiObserver *obs) { api_observer_ = obs; }
    ApiObserver *apiObserver() const { return api_observer_; }

    /** Module handle owning this kernel definition, or -1. */
    int moduleIndexOf(const ptx::KernelDef *kernel) const;

    /** Number of loaded modules on the current device. */
    int moduleCount() const { return int(dev().modules.size()); }

    /**
     * The (bytes, align) request loadModule() issues for one module-scope
     * global. Exposed so trace replay can reproduce the allocator effects of
     * a module load without parsing the module's PTX.
     */
    static std::pair<size_t, size_t>
    globalAllocShape(const ptx::GlobalVar &g)
    {
        return {std::max<size_t>(g.size, 1), std::max<size_t>(g.align, 4)};
    }

    // ---- trace-replay shims (single-device replay of peer ops) ----
    /**
     * Re-enqueue a recorded PeerSend/PeerRecv without a live peer: the op
     * carries its recorded completion cycle (and, for receives, the recorded
     * payload) so a lone device reproduces its half of the exchange — timing
     * and bytes — exactly.
     */
    void replayPeerSend(addr_t src, size_t bytes, int peer,
                        cycle_t complete_at, Stream *stream = nullptr);
    void replayPeerRecv(addr_t dst, std::vector<uint8_t> payload, int peer,
                        cycle_t complete_at, Stream *stream = nullptr);

    // ---- capture / observation (debug tool, Fig 2) ----
    void setCaptureLaunches(bool on) { opts_.capture_launches = on; }
    const std::vector<CapturedLaunch> &capturedLaunches() const
    {
        return captured_;
    }
    void clearCapturedLaunches() { captured_.clear(); }

    // ---- introspection ----
    const ContextOptions &options() const { return opts_; }
    GpuMemory &memory() { return dev().mem; }
    GpuMemory &memory(int device) { return at(device).mem; }
    DeviceAllocator &allocator() { return dev().alloc; }
    DeviceAllocator &allocator(int device) { return at(device).alloc; }
    func::Executor &executor() { return dev().exec; }
    func::FunctionalEngine &functionalEngine() { return dev().func_engine; }
    timing::GpuModel &gpuModel() { return *dev().gpu; }
    timing::GpuModel &gpuModel(int device) { return *at(device).gpu; }
    const timing::GpuConfig &gpuConfig() const { return opts_.gpu; }
    engine::DeviceEngine &deviceEngine() { return *dev().engine; }
    engine::DeviceEngine &deviceEngine(int device)
    {
        return *at(device).engine;
    }
    const std::vector<LaunchRecord> &launchLog() const { return launch_log_; }
    void clearLaunchLog() { launch_log_.clear(); }
    const func::SymbolTable &symbols() const { return dev().symbols; }

    /** Current device's busy span (max over stream timelines), in cycles. */
    cycle_t elapsedCycles() const;
    cycle_t elapsedCycles(int device) const;

    /** Functional-instruction grand total (sim-speed comparisons). */
    uint64_t totalWarpInstructions() const { return total_warp_instructions_; }

    /** Resolved simulation worker count (>= 1). */
    unsigned simThreads() const { return pool_ ? pool_->threadCount() : 1; }

  private:
    struct TexRef
    {
        std::string name;
        int id = 0;
    };

    struct TexNameEntry
    {
        std::vector<int> texrefs;  ///< all refs registered under this name
        func::TexBinding binding;
        bool bound = false;
    };

    /** Everything one simulated GPU owns. */
    struct Device : func::TextureProvider
    {
        explicit Device(const ContextOptions &opts);
        ~Device() override;

        const func::TexBinding *
        lookupTexture(const std::string &name) const override;

        GpuMemory mem;
        DeviceAllocator alloc;
        func::Executor exec;
        func::FunctionalEngine func_engine;
        std::unique_ptr<timing::GpuModel> gpu;

        std::unique_ptr<engine::ExecBackend> backend;
        engine::TimingBackend *timing_backend = nullptr;
        sample::SampledBackend *sampled_backend = nullptr;
        std::unique_ptr<engine::DeviceEngine> engine;

        std::vector<std::unique_ptr<ptx::Module>> modules;
        func::SymbolTable symbols;

        std::vector<TexRef> texrefs;
        std::map<std::string, TexNameEntry> tex_names;
        std::vector<std::unique_ptr<TexArray>> arrays;

        std::set<int> peers; ///< devices this one may send to
        bool destroyed = false;
    };

    /** Current device; fatal if it has been destroyed. */
    Device &dev();
    const Device &dev() const;
    /** Indexed device (stats inspection allowed even after destroy). */
    Device &at(int device);
    const Device &at(int device) const;
    /** Device owning this stream (current device for null); fatal if gone. */
    Device &owningDevice(Stream *stream);

    bool prepareLaunch(Device &d, LaunchRecord &rec, func::LaunchEnv &env);
    void retireLaunch(LaunchRecord &&rec, bool executed);
    void captureLaunch(Device &d, const LaunchRecord &rec);

    /** Drain + deadlock-check without notifying the API observer. */
    void syncStream(Stream *stream);

    /**
     * Round-robin every device's engine until no engine can make progress:
     * a PeerRecv blocked on device B unblocks only after device A's engine
     * starts the matching PeerSend, so quiescence is a fixed point over all
     * engines. Runs on the host thread in device-index order, which keeps
     * link reservations (and therefore all timing) bitwise-deterministic at
     * any sim_threads.
     */
    void drainAll();

    /** Creation-order index of an owned TexArray (observer identity). */
    unsigned arrayIndexOf(const TexArray *arr) const;

    ContextOptions opts_;
    std::unique_ptr<ThreadPool> pool_; ///< outlives the engines that use it
    std::unique_ptr<link::Fabric> fabric_; ///< outlives the device engines
    sample::TimingMode resolved_timing_ = sample::TimingMode::Detailed;
    std::vector<std::unique_ptr<Device>> devices_;
    int current_ = 0;
    stats::AerialSampler *sampler_ = nullptr;

    std::vector<LaunchRecord> launch_log_;
    std::vector<CapturedLaunch> captured_;
    LaunchHook launch_hook_;
    uint64_t total_warp_instructions_ = 0;

    ApiObserver *api_observer_ = nullptr;
    std::map<const Event *, unsigned> event_ids_; ///< creation order
    uint64_t next_api_seq_ = 0; ///< stamps peer ops for trace back-patching
};

} // namespace mlgs::cuda

#endif // MLGS_RUNTIME_CONTEXT_H
