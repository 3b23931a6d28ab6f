/**
 * @file
 * Device-side work descriptors shared by the execution engine and the CUDA
 * runtime facade: in-order streams of ops, event markers, and the per-launch
 * record that feeds the oracle and the debug tool. All completion times are
 * integral core cycles (cycle_t) on the single device timeline owned by the
 * DeviceEngine.
 */
#ifndef MLGS_ENGINE_STREAM_H
#define MLGS_ENGINE_STREAM_H

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "func/engine.h"
#include "ptx/ir.h"
#include "timing/gpu.h"

namespace mlgs::engine
{

class DeviceEngine;

/**
 * Rendezvous cell for one peer-to-peer copy. The sending device's engine
 * fills `payload` and stamps `ready_at` when the send op starts; the
 * receiving device's engine stays blocked on its PeerRecv op until `ready`
 * flips, then writes the payload into its own memory. Both engines only
 * ever touch their own GpuMemory — this cell is the sole shared state.
 */
struct PeerXfer
{
    std::vector<uint8_t> payload;
    bool ready = false;
    cycle_t ready_at = 0; ///< cycle the last byte arrives at the receiver
};

/** Event marker recorded into a stream. */
class Event
{
  public:
    bool recorded() const { return recorded_; }
    cycle_t completeTime() const { return complete_at_; }

  private:
    friend class DeviceEngine;
    bool recorded_ = false;
    cycle_t complete_at_ = 0; ///< device time the recording op completed
};

/** How a launch's cycles/stats were produced. */
enum class TimingSource : uint8_t
{
    Functional,   ///< functional mode: duration = instruction count
    Detailed,     ///< cycle-simulated in the timing model
    Extrapolated, ///< fast-forwarded; cycles scaled from a cluster rep
};

/** One entry in the per-launch log (feeds the oracle and the debug tool). */
struct LaunchRecord
{
    uint64_t launch_id = 0;
    std::string kernel_name;
    const ptx::KernelDef *kernel = nullptr;
    const ptx::Module *module = nullptr;
    Dim3 grid, block;
    std::vector<uint8_t> params;
    unsigned stream_id = 0;

    // Filled after execution:
    func::FuncStats func_stats;  ///< functional counts (both modes)
    cycle_t cycles = 0;          ///< performance mode only
    timing::KernelRunStats perf; ///< performance mode only
    cycle_t start_cycle = 0;     ///< device time the launch began executing
    cycle_t end_cycle = 0;       ///< device time the launch completed
    TimingSource timing_source = TimingSource::Functional;
    uint64_t cluster_id = 0;     ///< sampled timing modes only
};

/** In-order command queue. */
class Stream
{
  public:
    struct Op
    {
        enum class Kind
        {
            Launch,
            MemcpyH2D,
            MemcpyD2H,
            MemcpyD2D,
            Memset,
            RecordEvent,
            WaitEvent,
            PeerSend, ///< read local memory, publish through a PeerXfer
            PeerRecv, ///< wait for the PeerXfer, write into local memory
        };
        Kind kind;
        // Launch:
        const ptx::KernelDef *kernel = nullptr;
        const ptx::Module *module = nullptr;
        Dim3 grid, block;
        std::vector<uint8_t> params;
        // Memcpy/set:
        addr_t dst = 0, src = 0;
        std::vector<uint8_t> host_data; ///< H2D payload
        void *host_dst = nullptr;       ///< D2H destination
        size_t bytes = 0;
        uint8_t fill = 0;
        // Events:
        Event *event = nullptr;
        // Peer copies (PeerSend reads `src`, PeerRecv writes `dst`):
        std::shared_ptr<PeerXfer> xfer; ///< live rendezvous (null on replay)
        int peer_device = -1;
        /** Replay only: the recorded completion cycle to reproduce. */
        cycle_t fixed_complete = 0;
        /** Host API sequence number, for trace back-patching. */
        uint64_t api_seq = 0;
    };

    unsigned id() const { return id_; }

  private:
    friend class DeviceEngine;

    /** The dispatched-but-unretired front op, if any (streams are in-order). */
    struct InFlight
    {
        enum class Kind { None, Copy, Kernel };
        Kind kind = Kind::None;
        cycle_t done_at = 0;  ///< Copy: engine-computed completion time
        uint64_t token = 0;   ///< Kernel: backend launch token
        LaunchRecord rec;     ///< Kernel: record under construction
    };

    explicit Stream(unsigned id) : id_(id) {}

    unsigned id_;
    std::deque<Op> ops_;
    InFlight inflight_;
    cycle_t ready_at_ = 0; ///< completion time of the last retired op
};

} // namespace mlgs::engine

#endif // MLGS_ENGINE_STREAM_H
