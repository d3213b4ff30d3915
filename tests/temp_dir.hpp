#pragma once
// A private scratch directory for one test (or one test binary): made
// with mkdtemp under /tmp and removed, with everything in it, when the
// object goes out of scope, so test runs leave no directories behind.

#include <stdlib.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

namespace cortex::testing_support {

class TempDir {
 public:
  /// Creates /tmp/<prefix>-XXXXXX; throws std::runtime_error on failure.
  explicit TempDir(const std::string& prefix) {
    std::string tmpl = "/tmp/" + prefix + "-XXXXXX";
    if (mkdtemp(tmpl.data()) == nullptr)
      throw std::runtime_error("mkdtemp failed for " + tmpl);
    path_ = tmpl;
  }
  ~TempDir() {
    std::error_code ec;  // best effort: never throw from a destructor
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace cortex::testing_support
