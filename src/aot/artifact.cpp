#include "aot/artifact.hpp"

#include <dlfcn.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "aot/codegen.hpp"
#include "common/error.hpp"

namespace lbnn::aot {

namespace {

/// Unique-per-call suffix for compile scratch files: pid catches two engines
/// sharing a directory, the counter catches two threads in one process.
std::string scratch_suffix() {
  static std::atomic<std::uint64_t> counter{0};
  return std::to_string(static_cast<long>(::getpid())) + "." +
         std::to_string(counter.fetch_add(1));
}

/// dlopen `path` and verify the handshake: all three entry points present,
/// ABI current, embedded key equal to the expected one. Returns the handle
/// with `*run_out` set, or nullptr when the artifact cannot be trusted
/// (missing, truncated, corrupted, foreign, stale ABI).
void* load_verified(const std::string& path, const std::string& key,
                    ProgramArtifact::RunFn* run_out) {
  void* h = ::dlopen(path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (h == nullptr) return nullptr;
  using KeyFn = const char* (*)();
  using AbiFn = unsigned (*)();
  const auto keyfn = reinterpret_cast<KeyFn>(::dlsym(h, "lbnn_aot_key"));
  const auto abifn = reinterpret_cast<AbiFn>(::dlsym(h, "lbnn_aot_abi"));
  const auto runfn =
      reinterpret_cast<ProgramArtifact::RunFn>(::dlsym(h, "lbnn_aot_run"));
  if (keyfn == nullptr || abifn == nullptr || runfn == nullptr ||
      abifn() != kAotAbi || key != keyfn()) {
    ::dlclose(h);
    return nullptr;
  }
  *run_out = runfn;
  return h;
}

/// Generate, compile out of process, and atomically publish the shared
/// object at `so_path`. Returns false on any failure (the artifact then
/// carries no native code). The temp-name + rename() protocol makes concurrent
/// builders safe: each publishes a complete file, last rename wins with
/// identical bytes, and no reader ever dlopens a half-written artifact.
bool build_native(const SlicedProgram& sp, const std::string& key,
                  std::size_t words, const std::string& cxx, bool avx2,
                  const std::string& dir, const std::string& so_path) {
  const std::string scratch = dir + "/." + key + "." + scratch_suffix();
  const std::string src_path = scratch + ".cpp";
  const std::string tmp_so = scratch + ".so";
  {
    std::ofstream src(src_path);
    if (!src) return false;
    src << generate_source(sp, key, words);
    if (!src.good()) {
      src.close();
      ::unlink(src_path.c_str());
      return false;
    }
  }
  const std::string cmd = cxx + " -O2 -fPIC -shared" +
                          (avx2 ? " -mavx2" : "") + " -o '" + tmp_so + "' '" +
                          src_path + "' >/dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  ::unlink(src_path.c_str());
  if (rc != 0) {
    ::unlink(tmp_so.c_str());
    return false;
  }
  if (std::rename(tmp_so.c_str(), so_path.c_str()) != 0) {
    ::unlink(tmp_so.c_str());
    return false;
  }
  return true;
}

}  // namespace

ProgramArtifact::DlHandle& ProgramArtifact::DlHandle::operator=(
    DlHandle&& o) noexcept {
  if (this != &o) {
    if (h != nullptr) ::dlclose(h);
    h = o.h;
    o.h = nullptr;
  }
  return *this;
}

ProgramArtifact::DlHandle::~DlHandle() {
  if (h != nullptr) ::dlclose(h);
}

std::string aot_compiler() {
  if (const char* env = std::getenv("LBNN_AOT_CXX");
      env != nullptr && env[0] != '\0') {
    return env;
  }
#ifdef LBNN_AOT_CXX_DEFAULT
  return LBNN_AOT_CXX_DEFAULT;
#else
  return std::string();
#endif
}

ProgramArtifact compile_artifact(const Program& prog, const AotOptions& opt) {
  ProgramArtifact art;
  art.key = content_key(prog, opt.avx2);
  art.sliced = compile_sliced(prog);
  const std::string cxx = aot_compiler();
  if (cxx.empty() || opt.artifact_dir.empty()) return art;

  const std::size_t words = (prog.cfg.effective_word_width() + 63) / 64;
  const std::string so_path = opt.artifact_dir + "/lbnn-" + art.key + ".so";
  const auto adopt = [&](void* h, bool from_disk) {
    art.handle_ = ProgramArtifact::DlHandle(h);
    art.kind = BackendKind::kAotNative;
    art.so_path = so_path;
    art.native_words = static_cast<std::uint32_t>(words);
    art.from_disk = from_disk;
  };
  // Warm path: a previous process (or a sibling engine) already published
  // this artifact. Trust nothing — a corrupted or truncated file fails the
  // handshake, is unlinked, and falls through to a fresh compile.
  if (::access(so_path.c_str(), F_OK) == 0) {
    if (void* h = load_verified(so_path, art.key, &art.run); h != nullptr) {
      adopt(h, true);
      return art;
    }
    ::unlink(so_path.c_str());
  }
  if (build_native(art.sliced, art.key, words, cxx, opt.avx2, opt.artifact_dir,
                   so_path)) {
    if (void* h = load_verified(so_path, art.key, &art.run); h != nullptr) {
      adopt(h, false);
      return art;
    }
  }
  art.run = nullptr;
  return art;
}

AotExecutor::AotExecutor(const Program& prog,
                         std::shared_ptr<const ProgramArtifact> artifact)
    : prog_(prog),
      artifact_(std::move(artifact)),
      replay_(LpuSimulator::resolve_kernel(true) == SimdKernel::kAvx2) {
  if (!artifact_) throw Error("AotExecutor requires an artifact");
  prog_.validate();
}

std::vector<BitVec> AotExecutor::run(const std::vector<BitVec>& inputs) {
  const std::size_t width = validate_batch_inputs(prog_, inputs);
  const SlicedProgram& sp = artifact_->sliced;
  const std::size_t words = (width + 63) / 64;
  std::uint64_t* const arena = replay_.load(prog_, sp, inputs, words);
  // No native code, an off-width batch, or code specialized to another width
  // (it returns 0 without executing anything): replay the stream.
  const bool ran_native = artifact_->run != nullptr &&
                          words == artifact_->native_words &&
                          artifact_->run(arena, words) != 0;
  if (!ran_native) replay_.replay(prog_, sp, words, nullptr);
  return replay_.finish(prog_, sp, width, counters_);
}

}  // namespace lbnn::aot
