#include "lpu/backend.hpp"

#include "common/error.hpp"

namespace lbnn {

const char* to_string(BackendKind k) {
  switch (k) {
    case BackendKind::kScalar:
      return "scalar";
    case BackendKind::kSliced:
      return "sliced";
    case BackendKind::kAotNative:
      return "aot";
  }
  return "?";
}

std::size_t validate_batch_inputs(const Program& prog,
                                  const std::vector<BitVec>& inputs) {
  if (inputs.size() != prog.num_primary_inputs) {
    throw SimError("wrong number of input words");
  }
  const std::size_t width =
      inputs.empty() ? prog.cfg.effective_word_width() : inputs[0].width();
  if (width == 0) throw SimError("zero-width batch");
  for (const auto& v : inputs) {
    if (v.width() != width) throw SimError("ragged input word widths");
  }
  return width;
}

}  // namespace lbnn
