// uklibc/profiles.h - libc environments for automated-porting resolution.
//
// §4 of the paper builds applications with their native build systems and
// links the object archives against Unikraft with musl or newlib, with or
// without a glibc-compatibility layer. Whether a library links is a pure
// symbol-resolution question, so Table 2 is reproduced by an actual resolver
// (uklibc/porting.h) over the symbol sets defined here.
#ifndef UKLIBC_PROFILES_H_
#define UKLIBC_PROFILES_H_

#include <string>
#include <string_view>
#include <vector>

namespace uklibc {

enum class Libc { kNolibc, kNewlib, kMusl };
const char* LibcName(Libc l);

// Symbol groups, from universally available to glibc-only.
enum class SymbolGroup {
  kCore,        // memcpy/strlen/malloc/printf — every libc
  kPosix,       // open/socket/pthread_create — musl yes, newlib partial
  kPosixWide,   // getaddrinfo/epoll/eventfd wrappers — musl yes, newlib no
  kGlibcChk,    // __*_chk fortify aliases — only the compat layer
  kGlibc64,     // pread64/pwrite64/fopen64 LFS aliases — only the compat layer
  kGlibcMisc,   // qsort_r, __libc_start_main... — only the compat layer
};

// Representative concrete symbols per group (the resolver works on names).
const std::vector<std::string>& SymbolsInGroup(SymbolGroup g);

struct LibcProfile {
  Libc libc;
  bool glibc_compat_layer;

  // True if |symbol| resolves in this environment.
  bool Provides(std::string_view symbol) const;
};

}  // namespace uklibc

#endif  // UKLIBC_PROFILES_H_
