#include "runtime/context.h"

#include <algorithm>
#include <cstring>

#include "engine/functional_backend.h"
#include "engine/timing_backend.h"
#include "ptx/verifier/verifier.h"
#include "runtime/api_observer.h"
#include "sample/sampled_backend.h"

namespace mlgs::cuda
{

Context::Device::Device(const ContextOptions &opts)
    : exec(mem, opts.bugs), func_engine(exec),
      gpu(std::make_unique<timing::GpuModel>(opts.gpu, exec))
{
    exec.setRaceCheck(opts.check_races);
}

Context::Device::~Device() = default;

const func::TexBinding *
Context::Device::lookupTexture(const std::string &name) const
{
    const auto it = tex_names.find(name);
    if (it == tex_names.end() || !it->second.bound)
        return nullptr;
    return &it->second.binding;
}

Context::Context(ContextOptions opts) : opts_(std::move(opts))
{
    MLGS_REQUIRE(opts_.device_count >= 1,
                 "ContextOptions.device_count must be >= 1, got ",
                 opts_.device_count);
    const unsigned sim_threads =
        ThreadPool::resolveThreadCount(opts_.sim_threads);
    if (sim_threads > 1)
        pool_ = std::make_unique<ThreadPool>(sim_threads);
    fabric_ = std::make_unique<link::Fabric>(opts_.device_count, opts_.link);
    if (opts_.mode == SimMode::Performance)
        resolved_timing_ = sample::resolveTimingMode(opts_.timing_mode);

    for (int i = 0; i < opts_.device_count; i++) {
        auto d = std::make_unique<Device>(opts_);
        if (pool_)
            d->func_engine.setThreadPool(pool_.get());
        if (opts_.mode == SimMode::Performance) {
            if (resolved_timing_ == sample::TimingMode::Sampled) {
                auto sb = std::make_unique<sample::SampledBackend>(
                    *d->gpu, d->func_engine, opts_.sampling);
                d->sampled_backend = sb.get();
                d->backend = std::move(sb);
            } else {
                auto tb = std::make_unique<engine::TimingBackend>(*d->gpu);
                d->timing_backend = tb.get();
                d->backend = std::move(tb);
            }
        } else {
            d->backend =
                std::make_unique<engine::FunctionalBackend>(d->func_engine);
        }
        d->engine = std::make_unique<engine::DeviceEngine>(
            *d->backend, d->mem,
            engine::DeviceEngine::Options{opts_.memcpy_bytes_per_cycle});
        Device *dp = d.get();
        d->engine->setLaunchPrep(
            [this, dp](LaunchRecord &rec, func::LaunchEnv &env) {
                return prepareLaunch(*dp, rec, env);
            });
        d->engine->setLaunchRetire([this](LaunchRecord &&rec, bool executed) {
            retireLaunch(std::move(rec), executed);
        });
        d->engine->setFabric(fabric_.get(), i);
        d->engine->setPeerOpExec([this](uint64_t api_seq, cycle_t complete,
                                        const std::vector<uint8_t> *payload) {
            if (api_observer_)
                api_observer_->onPeerOpExecuted(api_seq, complete, payload);
        });
        // Single-device contexts keep the exact legacy drain path; with
        // peers, quiescence needs every engine (see drainAll).
        if (opts_.device_count > 1)
            d->engine->setDrainHook([this] { drainAll(); });
        devices_.push_back(std::move(d));
    }
}

Context::~Context() = default;

// ---- device table ----

Context::Device &
Context::dev()
{
    Device &d = *devices_[size_t(current_)];
    MLGS_REQUIRE(!d.destroyed, "device ", current_, " has been destroyed");
    return d;
}

const Context::Device &
Context::dev() const
{
    const Device &d = *devices_[size_t(current_)];
    MLGS_REQUIRE(!d.destroyed, "device ", current_, " has been destroyed");
    return d;
}

Context::Device &
Context::at(int device)
{
    MLGS_REQUIRE(device >= 0 && size_t(device) < devices_.size(),
                 "bad device ordinal ", device, " (device_count is ",
                 devices_.size(), ")");
    return *devices_[size_t(device)];
}

const Context::Device &
Context::at(int device) const
{
    MLGS_REQUIRE(device >= 0 && size_t(device) < devices_.size(),
                 "bad device ordinal ", device, " (device_count is ",
                 devices_.size(), ")");
    return *devices_[size_t(device)];
}

Context::Device &
Context::owningDevice(Stream *stream)
{
    if (!stream)
        return dev();
    for (size_t i = 0; i < devices_.size(); i++)
        for (const auto &sp : devices_[i]->engine->streams())
            if (sp.get() == stream) {
                MLGS_REQUIRE(!devices_[i]->destroyed, "device ", i,
                             " has been destroyed");
                return *devices_[i];
            }
    fatal("stream does not belong to any device of this context");
}

void
Context::setDevice(int device)
{
    MLGS_REQUIRE(device >= 0 && size_t(device) < devices_.size(),
                 "cudaSetDevice: bad device ordinal ", device,
                 " (device_count is ", devices_.size(), ")");
    current_ = device;
    if (api_observer_)
        api_observer_->onSetDevice(device);
}

void
Context::enablePeerAccess(int peer)
{
    MLGS_REQUIRE(peer >= 0 && size_t(peer) < devices_.size(),
                 "enablePeerAccess: bad peer ordinal ", peer,
                 " (device_count is ", devices_.size(), ")");
    MLGS_REQUIRE(peer != current_,
                 "enablePeerAccess: device ", peer, " cannot peer itself");
    dev().peers.insert(peer);
    if (api_observer_)
        api_observer_->onEnablePeerAccess(current_, peer);
}

void
Context::destroyDevice(int device)
{
    Device &d = at(device);
    MLGS_REQUIRE(!d.destroyed, "device ", device, " is already destroyed");
    d.engine->drain();
    for (const auto &s : d.engine->streams())
        MLGS_REQUIRE(d.engine->drained(s.get()),
                     "destroyDevice: stream ", s->id(), " of device ", device,
                     " still has blocked work");
    d.destroyed = true;
}

void
Context::memcpyPeer(addr_t dst, int dst_device, addr_t src, int src_device,
                    size_t bytes, Stream *dst_stream, Stream *src_stream)
{
    Device &sd = at(src_device);
    Device &dd = at(dst_device);
    MLGS_REQUIRE(src_device != dst_device,
                 "memcpyPeer: src and dst are both device ", src_device,
                 " (use memcpyD2D)");
    MLGS_REQUIRE(!sd.destroyed, "device ", src_device, " has been destroyed");
    MLGS_REQUIRE(!dd.destroyed, "device ", dst_device, " has been destroyed");
    MLGS_REQUIRE(sd.peers.count(dst_device),
                 "memcpyPeer: peer access from device ", src_device,
                 " to device ", dst_device, " is not enabled");

    Stream *ss = src_stream ? src_stream : sd.engine->defaultStream();
    Stream *ds = dst_stream ? dst_stream : dd.engine->defaultStream();
    const uint64_t send_seq = next_api_seq_++;
    const uint64_t recv_seq = next_api_seq_++;
    if (api_observer_)
        api_observer_->onMemcpyPeer(dst, dst_device, ds->id(), src,
                                    src_device, ss->id(), bytes, send_seq,
                                    recv_seq);

    auto xfer = std::make_shared<engine::PeerXfer>();
    Stream::Op send;
    send.kind = Stream::Op::Kind::PeerSend;
    send.src = src;
    send.bytes = bytes;
    send.xfer = xfer;
    send.peer_device = dst_device;
    send.api_seq = send_seq;
    Stream::Op recv;
    recv.kind = Stream::Op::Kind::PeerRecv;
    recv.dst = dst;
    recv.bytes = bytes;
    recv.xfer = std::move(xfer);
    recv.peer_device = src_device;
    recv.api_seq = recv_seq;
    // Send first so a default-stream receive can already see the payload.
    sd.engine->enqueue(ss, std::move(send));
    dd.engine->enqueue(ds, std::move(recv));
}

void
Context::replayPeerSend(addr_t src, size_t bytes, int peer,
                        cycle_t complete_at, Stream *stream)
{
    Stream::Op op;
    op.kind = Stream::Op::Kind::PeerSend;
    op.src = src;
    op.bytes = bytes;
    op.peer_device = peer;
    op.fixed_complete = complete_at;
    owningDevice(stream).engine->enqueue(stream, std::move(op));
}

void
Context::replayPeerRecv(addr_t dst, std::vector<uint8_t> payload, int peer,
                        cycle_t complete_at, Stream *stream)
{
    Stream::Op op;
    op.kind = Stream::Op::Kind::PeerRecv;
    op.dst = dst;
    op.bytes = payload.size();
    op.host_data = std::move(payload);
    op.peer_device = peer;
    op.fixed_complete = complete_at;
    owningDevice(stream).engine->enqueue(stream, std::move(op));
}

void
Context::drainAll()
{
    bool progressed = true;
    while (progressed) {
        progressed = false;
        for (const auto &d : devices_)
            if (d->engine->advance())
                progressed = true;
    }
}

void
Context::attachSampler(stats::AerialSampler *s)
{
    sampler_ = s;
    Device &d = dev();
    if (d.timing_backend)
        d.timing_backend->setSampler(s);
    if (d.sampled_backend)
        d.sampled_backend->setSampler(s);
}

// ---- memory ----

addr_t
Context::malloc(size_t bytes, size_t align)
{
    const addr_t addr = dev().alloc.alloc(bytes, align);
    if (api_observer_)
        api_observer_->onMalloc(addr, bytes, align);
    return addr;
}

void
Context::free(addr_t ptr)
{
    dev().alloc.free(ptr);
    if (api_observer_)
        api_observer_->onFree(ptr);
}

void
Context::memcpyH2D(addr_t dst, const void *src, size_t bytes, Stream *stream)
{
    Stream::Op op;
    op.kind = Stream::Op::Kind::MemcpyH2D;
    op.dst = dst;
    op.bytes = bytes;
    op.host_data.assign(static_cast<const uint8_t *>(src),
                        static_cast<const uint8_t *>(src) + bytes);
    if (api_observer_)
        api_observer_->onMemcpyH2D(dst, src, bytes,
                                   stream ? stream->id() : 0);
    owningDevice(stream).engine->enqueue(stream, std::move(op));
}

void
Context::memcpyD2H(void *dst, addr_t src, size_t bytes, Stream *stream)
{
    Device &d = owningDevice(stream);
    Stream::Op op;
    op.kind = Stream::Op::Kind::MemcpyD2H;
    op.src = src;
    op.bytes = bytes;
    op.host_dst = dst;
    d.engine->enqueue(stream, std::move(op));
    // D2H must complete before the host may look at dst: drain the stream.
    // The implied synchronize is part of this API call, so the observer sees
    // one D2H (with the result payload), not a copy plus a separate sync.
    syncStream(stream ? stream : d.engine->defaultStream());
    if (api_observer_)
        api_observer_->onMemcpyD2H(dst, src, bytes, stream ? stream->id() : 0);
}

void
Context::memcpyD2D(addr_t dst, addr_t src, size_t bytes, Stream *stream)
{
    Stream::Op op;
    op.kind = Stream::Op::Kind::MemcpyD2D;
    op.dst = dst;
    op.src = src;
    op.bytes = bytes;
    if (api_observer_)
        api_observer_->onMemcpyD2D(dst, src, bytes,
                                   stream ? stream->id() : 0);
    owningDevice(stream).engine->enqueue(stream, std::move(op));
}

void
Context::memsetD(addr_t dst, uint8_t value, size_t bytes, Stream *stream)
{
    Stream::Op op;
    op.kind = Stream::Op::Kind::Memset;
    op.dst = dst;
    op.bytes = bytes;
    op.fill = value;
    if (api_observer_)
        api_observer_->onMemset(dst, value, bytes, stream ? stream->id() : 0);
    owningDevice(stream).engine->enqueue(stream, std::move(op));
}

// ---- modules ----

int
Context::loadModule(const std::string &ptx_source, const std::string &name)
{
    Device &d = dev();
    auto mod = std::make_unique<ptx::Module>(ptx::parseModule(ptx_source, name));
    if (opts_.verify_ptx != PtxVerify::Off) {
        const auto diags = ptx::verifier::verifyModule(*mod);
        for (const auto &diag : diags)
            warn("verify_ptx: ", ptx::verifier::formatDiagnostic(name, diag));
        if (opts_.verify_ptx == PtxVerify::Strict &&
            ptx::verifier::maxSeverity(diags) >=
                ptx::verifier::Severity::Warning)
            fatal("verify_ptx: module '", name, "' failed verification with ",
                  diags.size(), " diagnostic(s)");
    }
    // Materialize module-scope globals in device memory. Names are scoped to
    // the module, but the flat symbol table keeps first-wins semantics for
    // cudaMemcpyToSymbol-style access.
    for (auto &g : mod->globals) {
        const auto [bytes, align] = globalAllocShape(g);
        g.addr = d.alloc.alloc(bytes, align);
        d.symbols.emplace(g.name, g.addr);
    }
    d.modules.push_back(std::move(mod));
    const int handle = int(d.modules.size()) - 1;
    if (api_observer_)
        api_observer_->onModuleLoaded(handle, ptx_source, name);
    return handle;
}

int
Context::moduleIndexOf(const ptx::KernelDef *kernel) const
{
    const Device &d = dev();
    for (size_t m = 0; m < d.modules.size(); m++)
        for (const auto &k : d.modules[m]->kernels)
            if (&k == kernel)
                return int(m);
    return -1;
}

const ptx::Module &
Context::module(int handle) const
{
    const Device &d = dev();
    MLGS_REQUIRE(handle >= 0 && size_t(handle) < d.modules.size(),
                 "bad module handle");
    return *d.modules[size_t(handle)];
}

const ptx::KernelDef *
Context::getFunction(int module_handle, const std::string &kernel) const
{
    return module(module_handle).findKernel(kernel);
}

const ptx::KernelDef *
Context::findKernel(const std::string &kernel) const
{
    for (const auto &m : dev().modules)
        if (const auto *k = m->findKernel(kernel))
            return k;
    return nullptr;
}

// ---- launch ----

void
Context::launch(const std::string &kernel, const Dim3 &grid, const Dim3 &block,
                const KernelArgs &args, Stream *stream)
{
    const ptx::KernelDef *k = findKernel(kernel);
    MLGS_REQUIRE(k, "cudaLaunch: kernel not found: ", kernel);
    cuLaunchKernel(k, grid, block, args, stream);
}

void
Context::cuLaunchKernel(const ptx::KernelDef *kernel, const Dim3 &grid,
                        const Dim3 &block, const KernelArgs &args,
                        Stream *stream)
{
    MLGS_REQUIRE(kernel, "cuLaunchKernel: null function");
    MLGS_REQUIRE(args.bytes().size() >= kernel->param_bytes,
                 "insufficient kernel arguments for ", kernel->name, ": got ",
                 args.bytes().size(), " bytes, need ", kernel->param_bytes);
    Device &d = owningDevice(stream);
    if (api_observer_)
        api_observer_->onLaunch(moduleIndexOf(kernel), kernel->name, grid,
                                block, args.bytes(),
                                stream ? stream->id() : 0);
    Stream::Op op;
    op.kind = Stream::Op::Kind::Launch;
    op.kernel = kernel;
    op.grid = grid;
    op.block = block;
    op.params = args.bytes();
    d.engine->enqueue(stream, std::move(op));
}

bool
Context::prepareLaunch(Device &d, LaunchRecord &rec, func::LaunchEnv &env)
{
    if (opts_.capture_launches)
        captureLaunch(d, rec);
    if (launch_hook_ && launch_hook_(rec))
        return false; // handled externally (checkpoint fast-forward/skip)

    env.kernel = rec.kernel;
    env.params = rec.params;
    env.symbols = &d.symbols;
    env.textures = &d;
    return true;
}

void
Context::retireLaunch(LaunchRecord &&rec, bool executed)
{
    if (executed)
        total_warp_instructions_ += opts_.mode == SimMode::Functional
                                        ? rec.func_stats.instructions
                                        : rec.perf.warp_instructions;
    launch_log_.push_back(std::move(rec));
}

void
Context::captureLaunch(Device &d, const LaunchRecord &rec)
{
    CapturedLaunch cap;
    cap.record = rec;
    // Any 8-byte-aligned parameter that looks like a device pointer may name
    // an output buffer; snapshot every allocation it points into (Fig 2).
    const auto &bytes = rec.params;
    for (size_t off = 0; off + 8 <= bytes.size(); off += 4) {
        uint64_t v;
        std::memcpy(&v, bytes.data() + off, 8);
        const auto alloc = d.alloc.containing(v);
        if (!alloc)
            continue;
        // De-duplicate by base address.
        bool seen = false;
        for (const auto &b : cap.buffers)
            if (b.addr == alloc->addr)
                seen = true;
        if (seen)
            continue;
        CapturedBuffer buf;
        buf.addr = alloc->addr;
        buf.data.resize(alloc->size);
        d.mem.read(alloc->addr, buf.data.data(), alloc->size);
        cap.buffers.push_back(std::move(buf));
    }
    captured_.push_back(std::move(cap));
}

// ---- streams & events ----

Stream *
Context::createStream()
{
    Stream *s = dev().engine->createStream();
    if (api_observer_)
        api_observer_->onCreateStream(s->id());
    return s;
}

void
Context::destroyStream(Stream *s)
{
    MLGS_REQUIRE(s && s->id() != 0, "cannot destroy the default stream");
    Device &d = owningDevice(s);
    syncStream(s);
    d.engine->resetStream(s); // keep the slot so ids stay stable
    if (api_observer_)
        api_observer_->onDestroyStream(s->id());
}

Event *
Context::createEvent()
{
    Event *e = dev().engine->createEvent();
    const unsigned id = unsigned(event_ids_.size());
    event_ids_.emplace(e, id);
    if (api_observer_)
        api_observer_->onCreateEvent(id);
    return e;
}

void
Context::recordEvent(Event *e, Stream *stream)
{
    MLGS_REQUIRE(e, "recordEvent: null event");
    Stream::Op op;
    op.kind = Stream::Op::Kind::RecordEvent;
    op.event = e;
    if (api_observer_)
        api_observer_->onRecordEvent(event_ids_.at(e),
                                     stream ? stream->id() : 0);
    owningDevice(stream).engine->enqueue(stream, std::move(op));
}

void
Context::streamWaitEvent(Stream *stream, Event *e)
{
    MLGS_REQUIRE(e, "streamWaitEvent: null event");
    Stream::Op op;
    op.kind = Stream::Op::Kind::WaitEvent;
    op.event = e;
    if (api_observer_)
        api_observer_->onWaitEvent(stream ? stream->id() : 0,
                                   event_ids_.at(e));
    owningDevice(stream).engine->enqueue(stream, std::move(op));
}

void
Context::syncStream(Stream *stream)
{
    MLGS_REQUIRE(stream, "streamSynchronize: null stream");
    engine::DeviceEngine &e = *owningDevice(stream).engine;
    e.drain();
    MLGS_REQUIRE(e.drained(stream),
                 "stream deadlock: stream ", stream->id(),
                 " is blocked on an event that is never recorded");
}

void
Context::streamSynchronize(Stream *stream)
{
    syncStream(stream);
    if (api_observer_)
        api_observer_->onStreamSynchronize(stream->id());
}

void
Context::deviceSynchronize()
{
    Device &d = dev();
    d.engine->drain();
    for (const auto &s : d.engine->streams())
        MLGS_REQUIRE(d.engine->drained(s.get()),
                     "device deadlock: stream ", s->id(),
                     " is blocked on an event that is never recorded");
    if (api_observer_)
        api_observer_->onDeviceSynchronize();
}

cycle_t
Context::elapsedCycles() const
{
    return dev().engine->elapsedCycles();
}

cycle_t
Context::elapsedCycles(int device) const
{
    return at(device).engine->elapsedCycles();
}

// ---- textures ----

int
Context::registerTexture(const std::string &name)
{
    Device &d = dev();
    TexRef ref;
    ref.name = name;
    ref.id = int(d.texrefs.size());
    d.texrefs.push_back(ref);

    TexNameEntry &entry = d.tex_names[name];
    if (opts_.legacy_texture_name_map) {
        // Pre-fix behaviour: the name maps to exactly one texref; the old
        // registration — including its binding — is discarded.
        entry = TexNameEntry{};
        entry.texrefs.push_back(ref.id);
    } else {
        entry.texrefs.push_back(ref.id); // fixed: name -> set of texrefs
    }
    if (api_observer_)
        api_observer_->onRegisterTexture(name, ref.id);
    return ref.id;
}

TexArray *
Context::mallocArray(unsigned width, unsigned height, unsigned channels)
{
    MLGS_REQUIRE(width > 0 && height > 0 && channels >= 1 && channels <= 4,
                 "bad cudaArray shape");
    Device &d = dev();
    auto arr = std::make_unique<TexArray>();
    arr->width = width;
    arr->height = height;
    arr->channels = channels;
    arr->addr = d.alloc.alloc(size_t(width) * height * channels * 4);
    d.arrays.push_back(std::move(arr));
    if (api_observer_)
        api_observer_->onMallocArray(unsigned(d.arrays.size()) - 1, width,
                                     height, channels, d.arrays.back()->addr);
    return d.arrays.back().get();
}

void
Context::freeArray(TexArray *arr)
{
    MLGS_REQUIRE(arr, "freeArray: null array");
    dev().alloc.free(arr->addr);
    arr->addr = 0;
    if (api_observer_)
        api_observer_->onFreeArray(arrayIndexOf(arr));
}

void
Context::memcpyToArray(TexArray *arr, const float *src, size_t count)
{
    MLGS_REQUIRE(arr && arr->addr, "memcpyToArray: bad array");
    MLGS_REQUIRE(count <= size_t(arr->width) * arr->height * arr->channels,
                 "memcpyToArray overflow");
    dev().mem.write(arr->addr, src, count * 4);
    if (api_observer_)
        api_observer_->onMemcpyToArray(arrayIndexOf(arr), src, count);
}

unsigned
Context::arrayIndexOf(const TexArray *arr) const
{
    const Device &d = dev();
    for (size_t i = 0; i < d.arrays.size(); i++)
        if (d.arrays[i].get() == arr)
            return unsigned(i);
    MLGS_ASSERT(false, "TexArray not owned by the current device");
    return 0;
}

void
Context::bindTextureToArray(int texref, TexArray *arr,
                            func::TexAddressMode mode)
{
    Device &d = dev();
    MLGS_REQUIRE(texref >= 0 && size_t(texref) < d.texrefs.size(),
                 "bad texref handle");
    MLGS_REQUIRE(arr && arr->addr, "bindTextureToArray: bad array");
    const std::string &name = d.texrefs[size_t(texref)].name;
    auto it = d.tex_names.find(name);
    MLGS_REQUIRE(it != d.tex_names.end(), "texture name not registered: ",
                 name);
    TexNameEntry &entry = it->second;
    if (opts_.legacy_texture_name_map) {
        // Pre-fix behaviour: binding through a stale texref is lost.
        if (std::find(entry.texrefs.begin(), entry.texrefs.end(), texref) ==
            entry.texrefs.end())
            return;
    }
    // Re-binding with a different array implicitly unbinds the old one
    // (the paper's second texture fix).
    entry.bound = true;
    entry.binding.base = arr->addr;
    entry.binding.width = arr->width;
    entry.binding.height = arr->height;
    entry.binding.channels = arr->channels;
    entry.binding.address_mode = mode;
    if (api_observer_)
        api_observer_->onBindTextureToArray(texref, arrayIndexOf(arr), mode);
}

void
Context::bindTextureLinear(int texref, addr_t ptr, unsigned width,
                           unsigned channels, func::TexAddressMode mode)
{
    Device &d = dev();
    MLGS_REQUIRE(texref >= 0 && size_t(texref) < d.texrefs.size(),
                 "bad texref handle");
    const std::string &name = d.texrefs[size_t(texref)].name;
    auto it = d.tex_names.find(name);
    MLGS_REQUIRE(it != d.tex_names.end(), "texture name not registered: ",
                 name);
    TexNameEntry &entry = it->second;
    if (opts_.legacy_texture_name_map) {
        if (std::find(entry.texrefs.begin(), entry.texrefs.end(), texref) ==
            entry.texrefs.end())
            return;
    }
    entry.bound = true;
    entry.binding.base = ptr;
    entry.binding.width = width;
    entry.binding.height = 1;
    entry.binding.channels = channels;
    entry.binding.address_mode = mode;
    if (api_observer_)
        api_observer_->onBindTextureLinear(texref, ptr, width, channels, mode);
}

void
Context::unbindTexture(int texref)
{
    Device &d = dev();
    MLGS_REQUIRE(texref >= 0 && size_t(texref) < d.texrefs.size(),
                 "bad texref handle");
    auto it = d.tex_names.find(d.texrefs[size_t(texref)].name);
    if (it != d.tex_names.end())
        it->second.bound = false;
    if (api_observer_)
        api_observer_->onUnbindTexture(texref);
}

const func::TexBinding *
Context::lookupTexture(const std::string &name) const
{
    return dev().lookupTexture(name);
}

// ---- symbols ----

addr_t
Context::getSymbolAddress(const std::string &name) const
{
    const auto &symbols = dev().symbols;
    const auto it = symbols.find(name);
    MLGS_REQUIRE(it != symbols.end(), "unknown device symbol: ", name);
    return it->second;
}

void
Context::memcpyToSymbol(const std::string &name, const void *src, size_t bytes)
{
    const addr_t addr = getSymbolAddress(name);
    dev().mem.write(addr, src, bytes);
    if (api_observer_)
        api_observer_->onMemcpyToSymbol(name, addr, src, bytes);
}

} // namespace mlgs::cuda
