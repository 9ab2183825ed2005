#include "nn/checkpoint.h"

#include <cstdint>
#include <cstring>
#include <fstream>

#include "util/log.h"

namespace bdlfi::nn {

namespace {

constexpr char kMagic[8] = {'B', 'D', 'L', 'F', 'I', 'c', 'k', 'p'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
void write_pod(std::ofstream& f, const T& v) {
  f.write(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename T>
bool read_pod(std::ifstream& f, T& v) {
  f.read(reinterpret_cast<char*>(&v), sizeof v);
  return static_cast<bool>(f);
}

}  // namespace

bool save_checkpoint(Network& net, const std::string& path) {
  std::ofstream f(path, std::ios::binary);
  if (!f) {
    BDLFI_LOG_ERROR("save_checkpoint: cannot open %s", path.c_str());
    return false;
  }
  f.write(kMagic, sizeof kMagic);
  write_pod(f, kVersion);
  const auto refs = net.state();
  write_pod(f, static_cast<std::uint64_t>(refs.size()));
  for (const auto& r : refs) {
    write_pod(f, static_cast<std::uint32_t>(r.name.size()));
    f.write(r.name.data(), static_cast<std::streamsize>(r.name.size()));
    write_pod(f, static_cast<std::uint32_t>(r.value->shape().rank()));
    for (int d = 0; d < r.value->shape().rank(); ++d) {
      write_pod(f, static_cast<std::int64_t>(r.value->shape()[d]));
    }
    f.write(reinterpret_cast<const char*>(r.value->data()),
            static_cast<std::streamsize>(r.value->numel() * sizeof(float)));
  }
  return static_cast<bool>(f);
}

bool load_checkpoint(Network& net, const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    BDLFI_LOG_ERROR("load_checkpoint: cannot open %s", path.c_str());
    return false;
  }
  char magic[8];
  f.read(magic, sizeof magic);
  if (!f || std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    BDLFI_LOG_ERROR("load_checkpoint: bad magic in %s", path.c_str());
    return false;
  }
  std::uint32_t version = 0;
  if (!read_pod(f, version) || version != kVersion) {
    BDLFI_LOG_ERROR("load_checkpoint: unsupported version");
    return false;
  }
  std::uint64_t count = 0;
  if (!read_pod(f, count)) return false;

  auto refs = net.state();
  if (count != refs.size()) {
    BDLFI_LOG_ERROR("load_checkpoint: entry count mismatch (%llu vs %zu)",
                    static_cast<unsigned long long>(count), refs.size());
    return false;
  }
  for (auto& r : refs) {
    std::uint32_t name_len = 0;
    if (!read_pod(f, name_len)) return false;
    // Compare lengths before allocating: a corrupt length is rejected, never
    // turned into a multi-GiB string.
    std::string name(name_len == r.name.size() ? name_len : 0, '\0');
    f.read(name.data(), static_cast<std::streamsize>(name.size()));
    if (!f || name_len != r.name.size() || name != r.name) {
      BDLFI_LOG_ERROR("load_checkpoint: name mismatch: '%s' vs '%s'",
                      name.c_str(), r.name.c_str());
      return false;
    }
    std::uint32_t rank = 0;
    if (!read_pod(f, rank) ||
        rank != static_cast<std::uint32_t>(r.value->shape().rank())) {
      BDLFI_LOG_ERROR("load_checkpoint: rank mismatch for %s", name.c_str());
      return false;
    }
    for (std::uint32_t d = 0; d < rank; ++d) {
      std::int64_t dim = 0;
      if (!read_pod(f, dim) || dim != r.value->shape()[static_cast<int>(d)]) {
        BDLFI_LOG_ERROR("load_checkpoint: shape mismatch for %s",
                        name.c_str());
        return false;
      }
    }
    f.read(reinterpret_cast<char*>(r.value->data()),
           static_cast<std::streamsize>(r.value->numel() * sizeof(float)));
    if (!f) {
      BDLFI_LOG_ERROR("load_checkpoint: truncated data for %s", name.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace bdlfi::nn
