//===- reclaim/DomainRegistry.h - Thread/domain attachment bookkeeping ---===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing for reclamation domains that hand out per-thread
/// records. Two lifetime problems are solved here once:
///
///  1. A thread exits while still attached to a domain: its thread-local
///     registry must hand the record back — but only if the domain is
///     still alive.
///  2. A domain dies, then a new domain is allocated at the same address:
///     stale thread-local entries must not match it. Every domain gets a
///     never-reused 64-bit id.
///
/// The global mutex is taken only on attach, detach, domain construction
/// and destruction — never on the guard fast path. A thread that
/// outlives many domains does not accumulate their dead entries: each
/// slow-path attach prunes them under the mutex it already holds, so
/// the per-thread registry stays bounded by the live domains it uses.
///
//===----------------------------------------------------------------------===//

#ifndef VBL_RECLAIM_DOMAINREGISTRY_H
#define VBL_RECLAIM_DOMAINREGISTRY_H

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_set>
#include <vector>

namespace vbl {
namespace reclaim {

/// Callback a domain supplies so an exiting thread can return its record.
/// Runs under the registry mutex with the domain confirmed alive.
using DetachFn = void (*)(void *Domain, void *Record);

namespace detail {

struct RegistryState {
  std::mutex Mutex;
  std::unordered_set<uint64_t> LiveDomains;
  uint64_t NextDomainId = 1;
};

inline RegistryState &registryState() {
  // Function-local static: constructed on first use, so no global
  // constructor ordering issues (per LLVM's static-constructor rule).
  static RegistryState State;
  return State;
}

struct TlsEntry {
  uint64_t DomainId;
  void *Domain;
  void *Record;
  DetachFn Detach;
};

struct TlsRegistry {
  std::vector<TlsEntry> Entries;

  ~TlsRegistry() {
    RegistryState &State = registryState();
    std::lock_guard<std::mutex> Lock(State.Mutex);
    for (const TlsEntry &Entry : Entries)
      if (State.LiveDomains.count(Entry.DomainId))
        Entry.Detach(Entry.Domain, Entry.Record);
  }
};

inline TlsRegistry &tlsRegistry() {
  thread_local TlsRegistry Registry;
  return Registry;
}

} // namespace detail

/// Registers a newborn domain; returns its unique id.
inline uint64_t registerDomain() {
  detail::RegistryState &State = detail::registryState();
  std::lock_guard<std::mutex> Lock(State.Mutex);
  const uint64_t Id = State.NextDomainId++;
  State.LiveDomains.insert(Id);
  return Id;
}

/// Marks a domain dead. After this returns, no exiting thread will call
/// back into it.
inline void unregisterDomain(uint64_t Id) {
  detail::RegistryState &State = detail::registryState();
  std::lock_guard<std::mutex> Lock(State.Mutex);
  State.LiveDomains.erase(Id);
}

/// Looks up this thread's record for \p DomainId, or null if the thread
/// has never attached to that domain.
inline void *findThreadRecord(uint64_t DomainId) {
  for (const detail::TlsEntry &Entry : detail::tlsRegistry().Entries)
    if (Entry.DomainId == DomainId)
      return Entry.Record;
  return nullptr;
}

/// Remembers that this thread holds \p Record of \p Domain so the record
/// is returned when the thread exits, first dropping this thread's
/// entries for domains that have since been destroyed.
inline void rememberThreadRecord(uint64_t DomainId, void *Domain,
                                 void *Record, DetachFn Detach) {
  detail::RegistryState &State = detail::registryState();
  auto &Entries = detail::tlsRegistry().Entries;
  std::lock_guard<std::mutex> Lock(State.Mutex);
  std::erase_if(Entries, [&State](const detail::TlsEntry &Entry) {
    return State.LiveDomains.count(Entry.DomainId) == 0;
  });
  Entries.push_back({DomainId, Domain, Record, Detach});
}

/// Number of entries in this thread's registry (regression tests).
inline size_t threadRecordCount() {
  return detail::tlsRegistry().Entries.size();
}

} // namespace reclaim
} // namespace vbl

#endif // VBL_RECLAIM_DOMAINREGISTRY_H
