#include "posix/syscalls.h"

#include <array>
#include <map>

namespace posix {

namespace {

// x86_64 syscall table, numbers 0..313 (through finit_module, the highest
// square in the paper's Fig 5 heatmap).
constexpr std::array<std::string_view, kMaxSyscallNr + 1> kNames = {
    "read", "write", "open", "close", "stat", "fstat", "lstat", "poll",         // 0-7
    "lseek", "mmap", "mprotect", "munmap", "brk", "rt_sigaction",               // 8-13
    "rt_sigprocmask", "rt_sigreturn", "ioctl", "pread64", "pwrite64", "readv",  // 14-19
    "writev", "access", "pipe", "select", "sched_yield", "mremap",              // 20-25
    "msync", "mincore", "madvise", "shmget", "shmat", "shmctl",                 // 26-31
    "dup", "dup2", "pause", "nanosleep", "getitimer", "alarm",                  // 32-37
    "setitimer", "getpid", "sendfile", "socket", "connect", "accept",           // 38-43
    "sendto", "recvfrom", "sendmsg", "recvmsg", "shutdown", "bind",             // 44-49
    "listen", "getsockname", "getpeername", "socketpair", "setsockopt",         // 50-54
    "getsockopt", "clone", "fork", "vfork", "execve", "exit",                   // 55-60
    "wait4", "kill", "uname", "semget", "semop", "semctl",                      // 61-66
    "shmdt", "msgget", "msgsnd", "msgrcv", "msgctl", "fcntl",                   // 67-72
    "flock", "fsync", "fdatasync", "truncate", "ftruncate", "getdents",         // 73-78
    "getcwd", "chdir", "fchdir", "rename", "mkdir", "rmdir",                    // 79-84
    "creat", "link", "unlink", "symlink", "readlink", "chmod",                  // 85-90
    "fchmod", "chown", "fchown", "lchown", "umask", "gettimeofday",             // 91-96
    "getrlimit", "getrusage", "sysinfo", "times", "ptrace", "getuid",           // 97-102
    "syslog", "getgid", "setuid", "setgid", "geteuid", "getegid",               // 103-108
    "setpgid", "getppid", "getpgrp", "setsid", "setreuid", "setregid",          // 109-114
    "getgroups", "setgroups", "setresuid", "getresuid", "setresgid",            // 115-119
    "getresgid", "getpgid", "setfsuid", "setfsgid", "getsid", "capget",         // 120-125
    "capset", "rt_sigpending", "rt_sigtimedwait", "rt_sigqueueinfo",            // 126-129
    "rt_sigsuspend", "sigaltstack", "utime", "mknod", "uselib",                 // 130-134
    "personality", "ustat", "statfs", "fstatfs", "sysfs", "getpriority",        // 135-140
    "setpriority", "sched_setparam", "sched_getparam", "sched_setscheduler",    // 141-144
    "sched_getscheduler", "sched_get_priority_max", "sched_get_priority_min",   // 145-147
    "sched_rr_get_interval", "mlock", "munlock", "mlockall", "munlockall",      // 148-152
    "vhangup", "modify_ldt", "pivot_root", "_sysctl", "prctl", "arch_prctl",    // 153-158
    "adjtimex", "setrlimit", "chroot", "sync", "acct", "settimeofday",          // 159-164
    "mount", "umount2", "swapon", "swapoff", "reboot", "sethostname",           // 165-170
    "setdomainname", "iopl", "ioperm", "create_module", "init_module",          // 171-175
    "delete_module", "get_kernel_syms", "query_module", "quotactl",             // 176-179
    "nfsservctl", "getpmsg", "putpmsg", "afs_syscall", "tuxcall",               // 180-184
    "security", "gettid", "readahead", "setxattr", "lsetxattr",                 // 185-189
    "fsetxattr", "getxattr", "lgetxattr", "fgetxattr", "listxattr",             // 190-194
    "llistxattr", "flistxattr", "removexattr", "lremovexattr",                  // 195-198
    "fremovexattr", "tkill", "time", "futex", "sched_setaffinity",              // 199-203
    "sched_getaffinity", "set_thread_area", "io_setup", "io_destroy",           // 204-207
    "io_getevents", "io_submit", "io_cancel", "get_thread_area",                // 208-211
    "lookup_dcookie", "epoll_create", "epoll_ctl_old", "epoll_wait_old",        // 212-215
    "remap_file_pages", "getdents64", "set_tid_address", "restart_syscall",     // 216-219
    "semtimedop", "fadvise64", "timer_create", "timer_settime",                 // 220-223
    "timer_gettime", "timer_getoverrun", "timer_delete", "clock_settime",       // 224-227
    "clock_gettime", "clock_getres", "clock_nanosleep", "exit_group",           // 228-231
    "epoll_wait", "epoll_ctl", "tgkill", "utimes", "vserver",                   // 232-236
    "mbind", "set_mempolicy", "get_mempolicy", "mq_open", "mq_unlink",          // 237-241
    "mq_timedsend", "mq_timedreceive", "mq_notify", "mq_getsetattr",            // 242-245
    "kexec_load", "waitid", "add_key", "request_key", "keyctl",                 // 246-250
    "ioprio_set", "ioprio_get", "inotify_init", "inotify_add_watch",            // 251-254
    "inotify_rm_watch", "migrate_pages", "openat", "mkdirat", "mknodat",        // 255-259
    "fchownat", "futimesat", "newfstatat", "unlinkat", "renameat",              // 260-264
    "linkat", "symlinkat", "readlinkat", "fchmodat", "faccessat",               // 265-269
    "pselect6", "ppoll", "unshare", "set_robust_list", "get_robust_list",       // 270-274
    "splice", "tee", "sync_file_range", "vmsplice", "move_pages",               // 275-279
    "utimensat", "epoll_pwait", "signalfd", "timerfd_create", "eventfd",        // 280-284
    "fallocate", "timerfd_settime", "timerfd_gettime", "accept4",               // 285-288
    "signalfd4", "eventfd2", "epoll_create1", "dup3", "pipe2",                  // 289-293
    "inotify_init1", "preadv", "pwritev", "rt_tgsigqueueinfo",                  // 294-297
    "perf_event_open", "recvmmsg", "fanotify_init", "fanotify_mark",            // 298-301
    "prlimit64", "name_to_handle_at", "open_by_handle_at", "clock_adjtime",     // 302-305
    "syncfs", "sendmmsg", "setns", "getcpu", "process_vm_readv",                // 306-310
    "process_vm_writev", "kcmp", "finit_module",                                // 311-313
};

}  // namespace

std::string_view SyscallName(int nr) {
  if (nr < 0 || nr > kMaxSyscallNr) {
    return "";
  }
  return kNames[static_cast<std::size_t>(nr)];
}

int SyscallNumber(std::string_view name) {
  static const std::map<std::string_view, int> kIndex = [] {
    std::map<std::string_view, int> m;
    for (int i = 0; i <= kMaxSyscallNr; ++i) {
      m[kNames[static_cast<std::size_t>(i)]] = i;
    }
    return m;
  }();
  auto it = kIndex.find(name);
  return it == kIndex.end() ? -1 : it->second;
}

const std::set<int>& SupportedSyscalls() {
  // 146 syscalls (the paper's count): core file I/O, memory, sockets, time,
  // scheduling, signals-lite, plus cheap unikernel stubs (getpid & friends).
  static const std::set<int> kSupported = [] {
    std::set<int> s;
    auto add = [&s](std::initializer_list<const char*> names) {
      for (const char* n : names) {
        int nr = SyscallNumber(n);
        if (nr >= 0) {
          s.insert(nr);
        }
      }
    };
    add({"read", "write", "open", "close", "stat", "fstat", "lstat", "poll", "lseek",
         "mmap", "mprotect", "munmap", "brk", "rt_sigaction", "rt_sigprocmask",
         "rt_sigreturn", "ioctl", "pread64", "pwrite64", "readv", "writev", "access",
         "pipe", "select", "sched_yield", "mremap", "msync", "madvise", "dup", "dup2",
         "pause", "nanosleep", "getitimer", "alarm", "setitimer", "getpid", "sendfile",
         "socket", "connect", "accept", "sendto", "recvfrom", "sendmsg", "recvmsg",
         "shutdown", "bind", "listen", "getsockname", "getpeername", "socketpair",
         "setsockopt", "getsockopt", "clone", "fork", "execve", "exit", "wait4", "kill",
         "uname", "fcntl", "flock", "fsync", "fdatasync", "truncate", "ftruncate",
         "getdents", "getcwd", "chdir", "fchdir", "rename", "mkdir", "rmdir", "creat",
         "link", "unlink", "symlink", "readlink", "chmod", "fchmod", "chown", "umask",
         "gettimeofday", "getrlimit", "getrusage", "sysinfo", "times", "getuid",
         "getgid", "setuid", "setgid", "geteuid", "getegid", "setpgid", "getppid",
         "getpgrp", "setsid", "sigaltstack", "statfs", "fstatfs", "getpriority",
         "setpriority", "arch_prctl", "setrlimit", "sync", "gettid", "time", "futex",
         "sched_setaffinity", "sched_getaffinity", "getdents64", "set_tid_address",
         "fadvise64", "clock_settime", "clock_gettime", "clock_getres",
         "clock_nanosleep", "exit_group", "epoll_wait", "epoll_ctl", "tgkill", "utimes",
         "openat", "mkdirat", "newfstatat", "unlinkat", "renameat", "linkat",
         "symlinkat", "readlinkat", "faccessat", "pselect6", "ppoll",
         "set_robust_list", "get_robust_list", "utimensat", "epoll_pwait",
         "timerfd_create", "eventfd", "fallocate", "timerfd_settime",
         "timerfd_gettime", "accept4", "eventfd2", "epoll_create1", "dup3", "pipe2",
         "preadv", "pwritev", "recvmmsg", "prlimit64", "sendmmsg", "getcpu",
         "getrandom"});
    return s;
  }();
  return kSupported;
}

}  // namespace posix
