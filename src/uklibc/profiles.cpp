#include "uklibc/profiles.h"

#include <map>

namespace uklibc {

const char* LibcName(Libc l) {
  switch (l) {
    case Libc::kNolibc: return "nolibc";
    case Libc::kNewlib: return "newlib";
    case Libc::kMusl: return "musl";
  }
  return "?";
}

const std::vector<std::string>& SymbolsInGroup(SymbolGroup g) {
  static const std::map<SymbolGroup, std::vector<std::string>> kGroups = {
      {SymbolGroup::kCore,
       {"memcpy", "memset", "memmove", "strlen", "strcmp", "strncpy", "strchr",
        "malloc", "free", "calloc", "realloc", "printf", "snprintf", "sprintf",
        "fprintf", "qsort", "abort", "exit", "atoi", "strtol", "memcmp", "strstr"}},
      {SymbolGroup::kPosix,
       {"open", "read", "write", "close", "lseek", "stat", "fstat", "unlink",
        "mkdir", "opendir", "readdir", "socket", "bind", "listen", "accept",
        "connect", "send", "recv", "setsockopt", "pthread_create", "pthread_join",
        "pthread_mutex_lock", "pthread_mutex_unlock", "gettimeofday", "time",
        "clock_gettime", "sigaction", "mmap", "munmap", "fcntl", "poll", "select",
        "dup2", "pipe", "getenv", "setenv"}},
      {SymbolGroup::kPosixWide,
       {"getaddrinfo", "freeaddrinfo", "getnameinfo", "epoll_create1", "epoll_ctl",
        "epoll_wait", "eventfd", "inet_ntop", "inet_pton", "if_nametoindex",
        "getifaddrs", "sendmsg", "recvmsg", "writev", "readv", "sysconf", "dlopen",
        "dlsym", "realpath", "nanosleep", "sched_yield"}},
      {SymbolGroup::kGlibcChk,
       {"__printf_chk", "__fprintf_chk", "__sprintf_chk", "__snprintf_chk",
        "__memcpy_chk", "__memset_chk", "__strcpy_chk", "__strncpy_chk",
        "__strcat_chk", "__read_chk", "__vfprintf_chk", "__explicit_bzero_chk"}},
      {SymbolGroup::kGlibc64,
       {"pread64", "pwrite64", "fopen64", "lseek64", "mmap64", "open64", "ftello64",
        "fseeko64", "stat64", "fstat64", "readdir64", "truncate64"}},
      {SymbolGroup::kGlibcMisc,
       {"qsort_r", "__libc_start_main", "secure_getenv", "gnu_get_libc_version",
        "__register_atfork", "backtrace", "error", "err", "warn",
        "program_invocation_name", "__isoc99_sscanf", "__isoc99_fscanf"}},
  };
  return kGroups.at(g);
}

namespace {

bool GroupProvided(const LibcProfile& p, SymbolGroup g) {
  switch (g) {
    case SymbolGroup::kCore:
      return true;  // even nolibc carries the core set (paper §3: memcpy etc.)
    case SymbolGroup::kPosix:
      return p.libc != Libc::kNolibc;
    case SymbolGroup::kPosixWide:
      // newlib is an embedded libc: the wide-POSIX surface is simply absent
      // ("many glibc functions are not implemented at all", §4) unless the
      // compat layer supplies syscall-backed implementations.
      return p.libc == Libc::kMusl || (p.libc == Libc::kNewlib && p.glibc_compat_layer);
    case SymbolGroup::kGlibcChk:
    case SymbolGroup::kGlibc64:
    case SymbolGroup::kGlibcMisc:
      return p.glibc_compat_layer;
  }
  return false;
}

}  // namespace

bool LibcProfile::Provides(std::string_view symbol) const {
  for (SymbolGroup g : {SymbolGroup::kCore, SymbolGroup::kPosix, SymbolGroup::kPosixWide,
                        SymbolGroup::kGlibcChk, SymbolGroup::kGlibc64,
                        SymbolGroup::kGlibcMisc}) {
    if (!GroupProvided(*this, g)) {
      continue;
    }
    for (const std::string& s : SymbolsInGroup(g)) {
      if (s == symbol) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace uklibc
