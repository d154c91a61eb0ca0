#include "runtime/program_cache.hpp"

#include <utility>

#include "aot/codegen.hpp"

namespace lbnn::runtime {
namespace {

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ull;
constexpr std::uint64_t kFnvPrime = 0x00000100000001B3ull;

struct Fnv {
  std::uint64_t h = kFnvOffset;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= kFnvPrime;
    }
  }
  void mix_str(const std::string& s) {
    mix(s.size());
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= kFnvPrime;
    }
  }
};

}  // namespace

std::uint64_t fingerprint(const Netlist& nl, const CompileOptions& opt) {
  Fnv f;
  // Netlist structure: dense ids are canonical (topological construction
  // order), so op/fanin streams identify the graph.
  f.mix(nl.num_nodes());
  for (NodeId id = 0; id < static_cast<NodeId>(nl.num_nodes()); ++id) {
    f.mix(static_cast<std::uint64_t>(nl.op(id)));
    f.mix(static_cast<std::uint64_t>(nl.fanin0(id)));
    f.mix(static_cast<std::uint64_t>(nl.fanin1(id)));
  }
  f.mix(nl.num_inputs());
  for (std::size_t i = 0; i < nl.num_inputs(); ++i) f.mix_str(nl.input_name(i));
  f.mix(nl.num_outputs());
  for (std::size_t o = 0; o < nl.num_outputs(); ++o) {
    f.mix(static_cast<std::uint64_t>(nl.outputs()[o]));
    f.mix_str(nl.output_name(o));
  }
  // Every option that changes the emitted program.
  f.mix(opt.lpu.m);
  f.mix(opt.lpu.n);
  f.mix(opt.lpu.tsw);
  f.mix(opt.lpu.word_width);
  f.mix(static_cast<std::uint64_t>(opt.lpu.clock_mhz * 1e3));
  f.mix(opt.optimize ? 1 : 0);
  f.mix(opt.merge ? 1 : 0);
  f.mix(opt.width_headroom_retries);
  for (const GateOp op : opt.library.ops()) f.mix(static_cast<std::uint64_t>(op));
  return f.h;
}

std::uint64_t ProgramCache::parallel_key(std::uint64_t single_fp, std::uint32_t k) {
  Fnv f;
  f.mix(single_fp);
  f.mix(0x706172616C6C656Cull);  // "parallel" tag: distinct key space from k=0
  f.mix(k);
  return f.h;
}

ProgramCache::ProgramCache(std::size_t capacity) : capacity_(capacity) {}

ProgramCache::Entry* ProgramCache::lookup_locked(std::uint64_t key) {
  auto it = map_.find(key);
  if (it == map_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return &it->second;
}

void ProgramCache::insert_locked(std::uint64_t key, Entry entry) {
  // A zero-capacity cache is a pass-through: the caller keeps the compiled
  // artifact alive, we retain (and evict) nothing.
  if (capacity_ == 0) return;
  while (map_.size() >= capacity_) {
    map_.erase(lru_.back());
    lru_.pop_back();
    ++stats_.evictions;
  }
  lru_.push_front(key);
  entry.lru_it = lru_.begin();
  map_.emplace(key, std::move(entry));
}

bool ProgramCache::erase(std::uint64_t key) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) return false;
  lru_.erase(it->second.lru_it);
  map_.erase(it);
  ++stats_.evictions;
  return true;
}

template <typename R, typename SlotFn, typename CompileFn>
std::shared_ptr<const R> ProgramCache::get_or_join(std::uint64_t key,
                                                   InflightMap<R>& inflight,
                                                   SlotFn slot,
                                                   CompileFn do_compile) {
  std::promise<std::shared_ptr<const R>> promise;
  std::shared_future<std::shared_ptr<const R>> shared;
  bool compile_here = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (Entry* e = lookup_locked(key); e != nullptr && slot(*e)) {
      ++stats_.hits;
      return slot(*e);
    }
    if (auto it = inflight.find(key); it != inflight.end()) {
      // Someone is compiling this key right now; join their future (counted
      // as a hit: this load runs no compile of its own).
      ++stats_.hits;
      shared = it->second;
    } else {
      ++stats_.misses;
      shared = promise.get_future().share();
      inflight.emplace(key, shared);
      compile_here = true;
    }
  }
  if (!compile_here) return shared.get();  // rethrows the owner's failure

  std::shared_ptr<const R> result;
  try {
    result = std::make_shared<const R>(do_compile());
  } catch (...) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      inflight.erase(key);  // a later load may retry
    }
    promise.set_exception(std::current_exception());
    throw;
  }
  {
    // Publish to the LRU before fulfilling the promise, so a caller woken by
    // the future observes the cached entry on its next load.
    std::lock_guard<std::mutex> lk(mu_);
    Entry entry;
    slot(entry) = result;
    insert_locked(key, std::move(entry));
    inflight.erase(key);
  }
  promise.set_value(result);
  return result;
}

std::shared_ptr<const CompileResult> ProgramCache::get_or_compile(
    const Netlist& nl, const CompileOptions& opt, std::uint64_t* key_out) {
  const std::uint64_t key = fingerprint(nl, opt);
  if (key_out != nullptr) *key_out = key;
  return get_or_join<CompileResult>(
      key, inflight_single_,
      [](Entry& e) -> std::shared_ptr<const CompileResult>& { return e.single; },
      [&] {
        if (compile_hook_) compile_hook_();
        return compile(nl, opt);
      });
}

std::shared_ptr<const ParallelCompileResult> ProgramCache::get_or_compile_parallel(
    const Netlist& nl, const CompileOptions& opt, std::uint32_t k,
    std::uint64_t* key_out) {
  const std::uint64_t key = parallel_key(fingerprint(nl, opt), k);
  if (key_out != nullptr) *key_out = key;
  return get_or_join<ParallelCompileResult>(
      key, inflight_parallel_,
      [](Entry& e) -> std::shared_ptr<const ParallelCompileResult>& {
        return e.parallel;
      },
      [&] {
        if (compile_hook_) compile_hook_();
        return compile_parallel(nl, opt, k);
      });
}

std::shared_ptr<const aot::ProgramArtifact> ProgramCache::get_or_build_native(
    const Program& prog, const aot::AotOptions& opt, std::uint64_t* key_out) {
  Fnv f;
  f.mix_str(aot::content_key(prog, opt.avx2));
  f.mix(0x6E61746976650000ull);  // "native" tag: distinct key space from programs
  const std::uint64_t key = f.h;
  if (key_out != nullptr) *key_out = key;
  return get_or_join<aot::ProgramArtifact>(
      key, inflight_native_,
      [](Entry& e) -> std::shared_ptr<const aot::ProgramArtifact>& {
        return e.native;
      },
      [&] {
        if (native_hook_) native_hook_();
        aot::ProgramArtifact art = aot::compile_artifact(prog, opt);
        {
          std::lock_guard<std::mutex> lk(mu_);
          if (art.kind != BackendKind::kAotNative) {
            ++stats_.native_failures;
          } else if (art.from_disk) {
            ++stats_.native_disk_hits;
          } else {
            ++stats_.native_compiles;
          }
        }
        return art;
      });
}

CacheStats ProgramCache::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  CacheStats s = stats_;
  s.entries = map_.size();
  return s;
}

}  // namespace lbnn::runtime
