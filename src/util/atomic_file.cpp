#include "util/atomic_file.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace bdlfi::util {

AtomicTextWriter::AtomicTextWriter(const std::string& path)
    : path_(path), tmp_(path + ".tmp") {
  f_ = std::fopen(tmp_.c_str(), "wb");
  ok_ = f_ != nullptr;
}

AtomicTextWriter::~AtomicTextWriter() {
  if (f_ == nullptr) return;
  std::fclose(f_);
  std::remove(tmp_.c_str());
}

bool AtomicTextWriter::append(std::string_view text) {
  if (ok_) ok_ = std::fwrite(text.data(), 1, text.size(), f_) == text.size();
  return ok_;
}

bool AtomicTextWriter::commit() {
  if (f_ == nullptr) return false;
  bool ok = ok_ && std::fputc('\n', f_) != EOF && std::fflush(f_) == 0;
#if defined(__unix__) || defined(__APPLE__)
  if (ok) ok = ::fsync(fileno(f_)) == 0;
#endif
  ok = std::fclose(f_) == 0 && ok;
  f_ = nullptr;
  ok_ = false;
  // rename() is atomic within a filesystem.
  if (!ok || std::rename(tmp_.c_str(), path_.c_str()) != 0) {
    std::remove(tmp_.c_str());
    return false;
  }
  return true;
}

bool write_text_atomic(const std::string& path, std::string_view text) {
  AtomicTextWriter file(path);
  file.append(text);
  return file.commit();
}

}  // namespace bdlfi::util
