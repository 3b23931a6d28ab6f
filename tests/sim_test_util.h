/**
 * @file
 * Shared test scaffolding: a minimal GPU (memory + allocator + functional
 * engine), a parameter-block packer matching the parser's param layout and
 * a counter-by-counter TimingTotals comparison.
 */
#ifndef MLGS_TESTS_SIM_TEST_UTIL_H
#define MLGS_TESTS_SIM_TEST_UTIL_H

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "func/engine.h"
#include "mem/allocator.h"
#include "mem/gpu_memory.h"
#include "ptx/parser.h"
#include "timing/gpu.h"

namespace mlgs::test
{

/**
 * RAII scratch directory under the system temp root. Unique per instance
 * (mkdtemp), removed with its contents on destruction — including when a
 * test assertion unwinds the stack — so parallel ctest shards never collide
 * on fixed /tmp file names and failures don't leave litter behind.
 */
class ScopedTmpDir
{
  public:
    ScopedTmpDir()
    {
        std::string tmpl =
            (std::filesystem::temp_directory_path() / "mlgs_test_XXXXXX")
                .string();
        MLGS_REQUIRE(::mkdtemp(tmpl.data()) != nullptr,
                     "mkdtemp failed for ", tmpl);
        path_ = tmpl;
    }

    ~ScopedTmpDir()
    {
        std::error_code ec; // best-effort cleanup, never throws in a dtor
        std::filesystem::remove_all(path_, ec);
    }

    ScopedTmpDir(const ScopedTmpDir &) = delete;
    ScopedTmpDir &operator=(const ScopedTmpDir &) = delete;

    const std::string &path() const { return path_; }

    /** Absolute path of `name` inside the directory. */
    std::string
    file(const std::string &name) const
    {
        return (std::filesystem::path(path_) / name).string();
    }

  private:
    std::string path_;
};

/** Packs kernel arguments with natural alignment (must match Param layout). */
class ParamPack
{
  public:
    template <typename T>
    ParamPack &
    add(T v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        const size_t align = sizeof(T);
        while (bytes_.size() % align)
            bytes_.push_back(0);
        const auto *p = reinterpret_cast<const uint8_t *>(&v);
        bytes_.insert(bytes_.end(), p, p + sizeof(T));
        return *this;
    }

    const std::vector<uint8_t> &bytes() const { return bytes_; }

  private:
    std::vector<uint8_t> bytes_;
};

/** Expect every TimingTotals counter equal; a failure names the counter. */
inline void
expectTotalsEq(const timing::TimingTotals &a, const timing::TimingTotals &b)
{
    for (const auto &c : timing::kTimingCounters)
        EXPECT_EQ(a.*c.member, b.*c.member) << c.name;
}

/** Self-contained functional GPU for unit tests. */
struct MiniGpu
{
    GpuMemory mem;
    DeviceAllocator alloc;
    func::Executor exec;
    func::FunctionalEngine engine;
    func::SymbolTable symbols;

    explicit MiniGpu(func::BugModel bugs = {}) : exec(mem, bugs), engine(exec)
    {
    }

    addr_t
    upload(const void *data, size_t n)
    {
        const addr_t a = alloc.alloc(n);
        mem.write(a, data, n);
        return a;
    }

    template <typename T>
    addr_t
    uploadVec(const std::vector<T> &v)
    {
        return upload(v.data(), v.size() * sizeof(T));
    }

    template <typename T>
    std::vector<T>
    download(addr_t a, size_t count)
    {
        std::vector<T> v(count);
        mem.read(a, v.data(), count * sizeof(T));
        return v;
    }

    func::FuncStats
    run(const ptx::Module &m, const std::string &kernel, Dim3 grid, Dim3 block,
        const ParamPack &params, const func::TextureProvider *tex = nullptr)
    {
        const auto *k = m.findKernel(kernel);
        MLGS_REQUIRE(k, "kernel not found: ", kernel);
        func::LaunchEnv env;
        env.kernel = k;
        env.params = params.bytes();
        env.symbols = &symbols;
        env.textures = tex;
        return engine.launch(env, grid, block);
    }
};

} // namespace mlgs::test

#endif // MLGS_TESTS_SIM_TEST_UTIL_H
