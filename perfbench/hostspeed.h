/**
 * @file
 * Host-speed reference for the gated CPU times. On a shared virtual machine
 * the speed of a vCPU changes from one second to the next with what other
 * tenants run on the same physical core, and a unit of simulation (10-20 s)
 * can take a third longer in one run than in the next. CPU time does not
 * remove that: the CPU is busy either way, only slower.
 *
 * A HostSpeed meter pins the calling thread, and every thread it starts
 * afterwards, to the CPU it is running on, and starts a reference thread on
 * that same CPU. The reference thread runs a fixed loop for kChunkSec of its
 * own CPU time, then sleeps kSleepNs, so it samples the CPU's speed about 100
 * times a second and takes a tenth of it. Over an interval, the reference's
 * loops per CPU second tell how fast the CPU ran; the measured code's CPU
 * seconds times that rate over kNominalLoopsPerSec are its CPU seconds at the
 * nominal speed.
 *
 * The loop is twelve independent xorshift lanes that each add a lookup in a
 * 16 KB table: integer work with a lot of instruction-level parallelism and
 * L1 loads. Of the loops tried (sorting a 16 KB array, pointer chasing in
 * 1 MB, 16 MB and 256 MB, a switch-dispatch interpreter, eight multiply
 * chains, a float dot product), it slowed down most nearly as much as the
 * simulator did when the host was busy: over 12 processes each replaying
 * winograd_fwd once, log replay CPU time against log loop rate had a slope of
 * -0.84 (correlation -0.99); sorting gave -1.5 to -1.8.
 */
#ifndef MLGS_PERFBENCH_HOSTSPEED_H
#define MLGS_PERFBENCH_HOSTSPEED_H

#include <sched.h>
#include <time.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>

namespace mlgs::perfbench
{

inline double
threadCpuSec()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

class HostSpeed
{
  public:
    /** Reference loops per CPU second that define the nominal speed: about
     *  what a quiet vCPU of a 4-vCPU Xeon (Sapphire Rapids) KVM guest does. */
    static constexpr double kNominalLoopsPerSec = 75000.0;
    static constexpr double kChunkSec = 1e-3;
    static constexpr long kSleepNs = 9'000'000;

    /** Cumulative counters of the reference thread. */
    struct Reading
    {
        uint64_t loops = 0;
        double loop_cpu = 0.0;   ///< CPU seconds spent in the loops
        double thread_cpu = 0.0; ///< all CPU seconds of the reference thread
    };

    /** One interval of measured code, corrected for the CPU's speed. */
    struct Sample
    {
        double cpu = 0.0;  ///< CPU seconds of the measured code alone
        double rate = 0.0; ///< reference loops per CPU second meanwhile
        double norm = 0.0; ///< cpu at the nominal speed
    };

    /** Off: no pinning, no thread; every reading is zero. */
    explicit HostSpeed(bool on)
    {
        if (!on)
            return;
        uint64_t x = 88172645463325252ull; // the same table every run
        for (auto &v : table_) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            v = x;
        }
        const int cpu = sched_getcpu();
        cpu_set_t set;
        CPU_ZERO(&set);
        if (cpu >= 0)
            CPU_SET(cpu, &set);
        if (cpu < 0 || sched_setaffinity(0, sizeof set, &set) != 0)
            throw std::runtime_error("cannot pin the benchmark to one CPU");
        thread_ = std::thread([this] { loop(); });
    }

    ~HostSpeed()
    {
        stop_ = true;
        if (thread_.joinable())
            thread_.join();
    }

    HostSpeed(const HostSpeed &) = delete;
    HostSpeed &operator=(const HostSpeed &) = delete;

    bool on() const { return thread_.joinable(); }

    Reading
    read() const
    {
        return {loops_.load(), loop_ns_.load() * 1e-9,
                thread_ns_.load() * 1e-9};
    }

    /**
     * `process_cpu` CPU seconds of the whole process between readings `a`
     * and `b`: take out the reference thread's share and scale the rest.
     */
    static Sample
    sample(double process_cpu, const Reading &a, const Reading &b)
    {
        Sample s;
        s.cpu = process_cpu - (b.thread_cpu - a.thread_cpu);
        const double loop_cpu = b.loop_cpu - a.loop_cpu;
        s.rate = loop_cpu > 0 ? double(b.loops - a.loops) / loop_cpu : 0.0;
        s.norm = s.cpu * s.rate / kNominalLoopsPerSec;
        return s;
    }

  private:
    /** One reference loop: kRounds rounds of the twelve lanes. */
    static uint64_t
    referenceLoop(const std::array<uint64_t, 2048> &table, uint64_t seed)
    {
        constexpr int kLanes = 12, kRounds = 1000;
        uint64_t lane[kLanes];
        for (int i = 0; i < kLanes; i++)
            lane[i] = seed + uint64_t(i);
        for (int r = 0; r < kRounds; r++) {
#pragma GCC unroll 12
            for (int i = 0; i < kLanes; i++) {
                uint64_t t = lane[i];
                t ^= t << 13;
                t ^= t >> 7;
                t += table[(t >> 3) % table.size()];
                lane[i] = t ^ (t << 17) ^ uint64_t(i);
            }
        }
        uint64_t out = 0;
        for (const uint64_t v : lane)
            out += v;
        return out;
    }

    void
    loop()
    {
        uint64_t sink = 0;
        while (!stop_) {
            const double c0 = threadCpuSec();
            double c1 = c0;
            uint64_t n = 0;
            // Counters move after every loop, so that a reading taken
            // while the loop runs is off by one loop (about 15 us) at most.
            while (c1 - c0 < kChunkSec) {
                const double l0 = c1;
                sink += referenceLoop(table_, n);
                n++;
                c1 = threadCpuSec();
                loops_ += 1;
                loop_ns_ += uint64_t((c1 - l0) * 1e9);
                thread_ns_ = uint64_t(c1 * 1e9);
            }
            const timespec nap{0, kSleepNs};
            nanosleep(&nap, nullptr);
        }
        sink_ = sink;
    }

    std::array<uint64_t, 2048> table_{}; ///< 16 KB
    std::atomic<bool> stop_{false};
    std::atomic<uint64_t> loops_{0}, loop_ns_{0}, thread_ns_{0};
    uint64_t sink_ = 0;
    std::thread thread_;
};

} // namespace mlgs::perfbench

#endif // MLGS_PERFBENCH_HOSTSPEED_H
