// ukbuild/registry.h - the micro-library registry behind the Kconfig menu.
//
// Every Unikraft component is a micro-library with its own Makefile/Kconfig
// (§3). Here each is described by a manifest: its objects (name, size, and
// the feature that pulls it in), its dependencies on other micro-libraries,
// and whether LTO can shrink it. The linker (linker.h) consumes these to
// produce images, dependency graphs (Figs 2, 3) and size numbers (Figs 8, 9).
//
// Object sizes are calibrated against the published Unikraft 0.4 image sizes
// so that absolute outputs land near the paper's Fig 8 values.
#ifndef UKBUILD_REGISTRY_H_
#define UKBUILD_REGISTRY_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace ukbuild {

enum class LibClass { kPlat, kApi, kDriver, kOsPrim, kLibc, kExternal, kApp };

struct ObjectFile {
  std::string name;
  std::uint32_t size_bytes = 0;
  // Feature that makes this object reachable; "" means always reachable when
  // the library is linked. DCE drops objects whose feature the app never uses.
  std::string feature;
};

struct MicroLib {
  std::string name;
  LibClass lib_class = LibClass::kOsPrim;
  std::vector<ObjectFile> objects;
  std::vector<std::string> deps;        // other micro-libraries
  bool lto_shrinkable = false;          // big C bodies shrink under LTO
  std::uint32_t TotalBytes() const;
};

struct AppManifest {
  std::string name;
  std::string app_lib;                       // micro-library holding app code
  std::vector<std::string> features_used;    // drives DCE
  std::vector<std::string> extra_libs;       // beyond transitive deps
};

class Registry {
 public:
  // Builds the full ukraft registry (platform libs, APIs, drivers,
  // allocators, schedulers, net/fs stacks, libcs, app libs).
  static Registry Default();

  void Add(MicroLib lib);
  void AddApp(AppManifest app);

  const MicroLib* Find(const std::string& name) const;
  const AppManifest* FindApp(const std::string& name) const;
  const std::map<std::string, MicroLib>& libs() const { return libs_; }

 private:
  std::map<std::string, MicroLib> libs_;
  std::map<std::string, AppManifest> apps_;
};

}  // namespace ukbuild

#endif  // UKBUILD_REGISTRY_H_
