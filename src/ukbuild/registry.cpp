#include "ukbuild/registry.h"

namespace ukbuild {

std::uint32_t MicroLib::TotalBytes() const {
  std::uint32_t total = 0;
  for (const ObjectFile& o : objects) {
    total += o.size_bytes;
  }
  return total;
}

void Registry::Add(MicroLib lib) { libs_[lib.name] = std::move(lib); }
void Registry::AddApp(AppManifest app) { apps_[app.name] = std::move(app); }

const MicroLib* Registry::Find(const std::string& name) const {
  auto it = libs_.find(name);
  return it == libs_.end() ? nullptr : &it->second;
}

const AppManifest* Registry::FindApp(const std::string& name) const {
  auto it = apps_.find(name);
  return it == apps_.end() ? nullptr : &it->second;
}

Registry Registry::Default() {
  Registry r;
  auto lib = [&r](std::string name, LibClass cls, std::vector<ObjectFile> objs,
                  std::vector<std::string> deps, bool lto = false) {
    r.Add(MicroLib{std::move(name), cls, std::move(objs), std::move(deps), lto});
  };

  // Platform layer (per-platform bootstrapping + bus code).
  lib("plat-kvm", LibClass::kPlat,
      {{"entry64.o", 9 * 1024, ""}, {"traps.o", 7 * 1024, ""},
       {"memregion.o", 6 * 1024, ""}, {"pci.o", 14 * 1024, "pci"},
       {"clock.o", 8 * 1024, ""}},
      {"ukboot"});
  lib("plat-xen", LibClass::kPlat,
      {{"entryxen.o", 6 * 1024, ""}, {"hypercalls.o", 5 * 1024, ""},
       {"grant.o", 9 * 1024, "grant"}, {"clock.o", 6 * 1024, ""}},
      {"ukboot"});
  lib("plat-linuxu", LibClass::kPlat,
      {{"setup.o", 5 * 1024, ""}, {"hostcalls.o", 7 * 1024, ""}},
      {"ukboot"});

  // Boot + arg parsing + debug.
  lib("ukboot", LibClass::kOsPrim,
      {{"boot.o", 8 * 1024, ""}, {"ctors.o", 3 * 1024, ""}},
      {"ukalloc", "ukargparse"});
  lib("ukargparse", LibClass::kOsPrim, {{"argparse.o", 4 * 1024, ""}}, {});
  lib("ukdebug", LibClass::kOsPrim,
      {{"print.o", 10 * 1024, ""}, {"trace.o", 8 * 1024, "trace"},
       {"asserts.o", 4 * 1024, ""}},
      {});

  // Memory allocation: the API plus interchangeable backends.
  lib("ukalloc", LibClass::kApi, {{"alloc.o", 6 * 1024, ""}}, {});
  lib("ukallocbuddy", LibClass::kOsPrim,
      {{"buddy.o", 14 * 1024, ""}, {"bitmap.o", 5 * 1024, ""}}, {"ukalloc"});
  lib("ukalloctlsf", LibClass::kOsPrim, {{"tlsf.o", 13 * 1024, ""}}, {"ukalloc"});
  lib("ukalloctiny", LibClass::kOsPrim, {{"tinyalloc.o", 5 * 1024, ""}}, {"ukalloc"});
  lib("ukallocmimalloc", LibClass::kExternal,
      {{"mimalloc.o", 52 * 1024, ""}, {"mi-os.o", 9 * 1024, ""}},
      {"ukalloc", "pthread-embedded"}, true);
  lib("ukallocregion", LibClass::kOsPrim, {{"region.o", 3 * 1024, ""}}, {"ukalloc"});

  // Scheduling / locking.
  lib("uksched", LibClass::kApi, {{"sched.o", 9 * 1024, ""}, {"thread.o", 8 * 1024, ""}},
      {"ukalloc"});
  lib("ukschedcoop", LibClass::kOsPrim, {{"coop.o", 6 * 1024, ""}}, {"uksched"});
  lib("ukschedpreempt", LibClass::kOsPrim, {{"preempt.o", 9 * 1024, ""}}, {"uksched"});
  lib("uklock", LibClass::kOsPrim,
      {{"mutex.o", 4 * 1024, ""}, {"semaphore.o", 4 * 1024, ""}}, {"uksched"});
  lib("pthread-embedded", LibClass::kExternal,
      {{"pthread.o", 28 * 1024, ""}, {"tls.o", 8 * 1024, ""}}, {"uksched", "uklock"},
      true);

  // Filesystems.
  lib("vfscore", LibClass::kApi,
      {{"vfs.o", 18 * 1024, ""}, {"fdops.o", 12 * 1024, ""},
       {"mount.o", 8 * 1024, ""}},
      {"ukalloc", "uklock"});
  lib("ramfs", LibClass::kOsPrim, {{"ramfs.o", 11 * 1024, ""}}, {"vfscore"});
  lib("9pfs", LibClass::kOsPrim,
      {{"9pclient.o", 16 * 1024, ""}, {"9pproto.o", 10 * 1024, ""}},
      {"vfscore", "uk9pdev"});
  lib("uk9pdev", LibClass::kDriver, {{"9pdev.o", 12 * 1024, ""}}, {"ukbus"});
  lib("shfs", LibClass::kOsPrim, {{"shfs.o", 9 * 1024, ""}}, {"ukalloc"});

  // Block.
  lib("ukblkdev", LibClass::kApi, {{"blkdev.o", 10 * 1024, ""}}, {"ukalloc"});
  lib("virtio-blk", LibClass::kDriver, {{"vblk.o", 9 * 1024, ""}},
      {"ukblkdev", "virtio-core"});

  // Network.
  lib("uknetdev", LibClass::kApi,
      {{"netdev.o", 11 * 1024, ""}, {"netbuf.o", 6 * 1024, ""}}, {"ukalloc"});
  lib("virtio-core", LibClass::kDriver,
      {{"virtqueue.o", 10 * 1024, ""}, {"virtio-bus.o", 8 * 1024, ""}}, {"ukbus"});
  lib("virtio-net", LibClass::kDriver, {{"vnet.o", 12 * 1024, ""}},
      {"uknetdev", "virtio-core"});
  lib("ukbus", LibClass::kOsPrim, {{"bus.o", 5 * 1024, ""}}, {});
  lib("lwip", LibClass::kExternal,
      {{"tcp.o", 91 * 1024, ""}, {"udp.o", 22 * 1024, ""}, {"ip4.o", 34 * 1024, ""},
       {"sockets.o", 48 * 1024, "socket"}, {"dns.o", 18 * 1024, "dns"},
       {"pbuf.o", 16 * 1024, ""}, {"netif.o", 12 * 1024, ""}},
      {"uknetdev", "uklock", "uksched"}, true);

  // POSIX compatibility layer.
  lib("posix-fdtab", LibClass::kOsPrim, {{"fdtab.o", 7 * 1024, ""}}, {"vfscore"});
  lib("posix-process", LibClass::kOsPrim, {{"process.o", 9 * 1024, ""}}, {"uksched"});
  lib("posix-socket", LibClass::kOsPrim, {{"sock.o", 10 * 1024, ""}},
      {"posix-fdtab", "lwip"});
  lib("syscall-shim", LibClass::kApi, {{"shim.o", 12 * 1024, ""}}, {});

  // libc choices.
  lib("nolibc", LibClass::kLibc,
      {{"string.o", 9 * 1024, ""}, {"stdio-min.o", 11 * 1024, ""}},
      {"ukalloc"});
  lib("musl", LibClass::kLibc,
      {{"string.o", 38 * 1024, ""}, {"stdio.o", 74 * 1024, ""},
       {"malloc-api.o", 12 * 1024, ""}, {"locale.o", 46 * 1024, "locale"},
       {"math.o", 88 * 1024, "math"}, {"regex.o", 52 * 1024, "regex"},
       {"time.o", 24 * 1024, ""}, {"network.o", 36 * 1024, "socket"}},
      {"syscall-shim", "ukalloc"}, true);
  lib("newlib", LibClass::kLibc,
      {{"string.o", 42 * 1024, ""}, {"stdio.o", 96 * 1024, ""},
       {"math.o", 102 * 1024, "math"}, {"reent.o", 28 * 1024, ""}},
      {"syscall-shim", "ukalloc"}, true);

  // Application bodies (externally built archives, §4).
  lib("app-helloworld", LibClass::kApp, {{"main.o", 2 * 1024, ""}}, {"nolibc"});
  lib("app-nginx", LibClass::kApp,
      {{"core.o", 310 * 1024, ""}, {"http.o", 260 * 1024, ""},
       {"modules.o", 240 * 1024, "modules"}, {"mail.o", 120 * 1024, "mail"},
       {"stream.o", 96 * 1024, "stream"}},
      {"musl", "lwip", "posix-socket", "vfscore", "ramfs", "pthread-embedded"}, true);
  lib("app-redis", LibClass::kApp,
      {{"server.o", 270 * 1024, ""}, {"datatypes.o", 230 * 1024, ""},
       {"cluster.o", 140 * 1024, "cluster"}, {"scripting.o", 160 * 1024, "lua"},
       {"aof-rdb.o", 100 * 1024, "persistence"}},
      {"musl", "lwip", "posix-socket", "vfscore", "ramfs", "pthread-embedded"}, true);
  lib("app-sqlite", LibClass::kApp,
      {{"btree.o", 260 * 1024, ""}, {"vdbe.o", 290 * 1024, ""},
       {"parse.o", 210 * 1024, ""}, {"fts.o", 220 * 1024, "fts"},
       {"rtree.o", 90 * 1024, "rtree"}},
      {"musl", "vfscore", "ramfs"}, true);

  r.AddApp(AppManifest{"helloworld", "app-helloworld", {}, {"ukdebug"}});
  r.AddApp(AppManifest{"nginx", "app-nginx", {"socket"},
                       {"ukschedcoop", "ukalloctlsf", "virtio-net", "ukdebug",
                        "posix-process", "ukargparse"}});
  r.AddApp(AppManifest{"redis", "app-redis", {"socket"},
                       {"ukschedcoop", "ukallocmimalloc", "virtio-net", "ukdebug",
                        "posix-process", "ukargparse"}});
  r.AddApp(AppManifest{"sqlite", "app-sqlite", {},
                       {"ukalloctlsf", "ukdebug", "ukargparse"}});
  return r;
}

}  // namespace ukbuild
