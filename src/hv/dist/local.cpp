#include "hv/dist/local.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <sys/un.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "hv/dist/worker.h"
#include "hv/util/error.h"

namespace hv::dist {

namespace {

// Workers exit on the shutdown frame. The whole wave shares one grace
// deadline, after which every straggler (a stuck child would hang the
// command) gets a SIGTERM. One waiter thread per child blocks in
// waitid(WNOWAIT): it sees the exit without reaping, so a straggler's pid
// cannot be recycled before the SIGTERM reaches it.
void reap(const std::vector<pid_t>& children) {
  constexpr std::chrono::seconds kGrace{2};
  std::mutex mutex;
  std::condition_variable exited_cv;
  std::vector<bool> exited(children.size(), false);
  std::size_t running = 0;
  std::vector<std::thread> waiters;
  waiters.reserve(children.size());
  for (std::size_t i = 0; i < children.size(); ++i) {
    const auto wait_for_exit = [&, i] {
      siginfo_t info{};
      while (::waitid(P_PID, static_cast<id_t>(children[i]), &info, WEXITED | WNOWAIT) != 0 &&
             errno == EINTR) {
      }
      std::lock_guard<std::mutex> lock(mutex);
      exited[i] = true;
      --running;
      exited_cv.notify_all();
    };
    {
      std::lock_guard<std::mutex> lock(mutex);
      ++running;
    }
    try {
      waiters.emplace_back(wait_for_exit);
    } catch (const std::system_error&) {
      // No thread to spare: this child counts as a straggler.
      std::lock_guard<std::mutex> lock(mutex);
      --running;
    }
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    exited_cv.wait_for(lock, kGrace, [&] { return running == 0; });
    for (std::size_t i = 0; i < children.size(); ++i) {
      if (!exited[i]) ::kill(children[i], SIGTERM);
    }
  }
  for (std::thread& waiter : waiters) waiter.join();
  for (const pid_t child : children) ::waitpid(child, nullptr, 0);
}

}  // namespace

std::vector<checker::PropertyResult> check_distributed_local(
    const std::string& model_text, const std::vector<PropertySpec>& specs, int worker_count,
    const DistOptions& options, DistStats* stats) {
  if (worker_count < 1) throw InvalidArgument("dist: worker count must be >= 1");
  // A private 0700 directory from mkdtemp, not a predictable path in the
  // world-writable temp root: a predictable name lets another local user
  // squat the path (the run fails) or connect as a rogue worker. TMPDIR is
  // honored (sandboxes and CI point it at per-job scratch space), falling
  // back to /tmp.
  std::string tmp_root = "/tmp";
  if (const char* env = std::getenv("TMPDIR"); env != nullptr && *env != '\0') {
    tmp_root = env;
    while (tmp_root.size() > 1 && tmp_root.back() == '/') tmp_root.pop_back();
  }
  const std::string templ = tmp_root + "/hvc-XXXXXX";
  // The socket path must fit sockaddr_un; check before mkdtemp so the error
  // names the culprit instead of a bind(2) failing with a truncated path.
  const std::size_t path_len = templ.size() + std::string("/dist.sock").size();
  const std::size_t path_max = sizeof(sockaddr_un{}.sun_path) - 1;
  if (path_len > path_max) {
    throw InvalidArgument("dist: socket path '" + templ + "/dist.sock' (" +
                          std::to_string(path_len) + " bytes) exceeds the unix-socket limit of " +
                          std::to_string(path_max) +
                          " bytes; point TMPDIR at a shorter path");
  }
  std::vector<char> dir_template(templ.begin(), templ.end());
  dir_template.push_back('\0');
  if (::mkdtemp(dir_template.data()) == nullptr) {
    throw Error("dist: cannot create a private socket directory under " + tmp_root);
  }
  const std::string socket_dir = dir_template.data();
  Address address;
  address.unix_domain = true;
  address.path = socket_dir + "/dist.sock";
  const auto cleanup_socket = [&] {
    ::unlink(address.path.c_str());
    ::rmdir(socket_dir.c_str());
  };

  // Bind before forking so no child races the listen; children then only
  // ever see a connectable socket.
  int listen_fd = -1;
  try {
    listen_fd = listen_on(address);
  } catch (...) {
    ::rmdir(socket_dir.c_str());
    throw;
  }

  DistOptions coordinator_options = options;
  coordinator_options.expected_workers = worker_count;
  coordinator_options.self_hosted_fleet = true;
  WorkerOptions worker_options;
  worker_options.connect = "unix:" + address.path;
  worker_options.fault = options.check.fault;
  // A forked worker that loses its connection (injected chaos, a flaky
  // veth) rejoins instead of dying for good; run-complete shutdowns are
  // semantic stops, so clean exits are unaffected. Stragglers still
  // reconnect-spinning after the run get the SIGTERM below.
  worker_options.reconnect_seconds = 60.0;

  std::vector<pid_t> children;
  for (int w = 0; w < worker_count; ++w) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      for (const pid_t child : children) ::kill(child, SIGKILL);
      ::close(listen_fd);
      cleanup_socket();
      throw Error("dist: fork failed");
    }
    if (pid == 0) {
      // Child: pure worker process. _exit (not exit) — the parent's stdio
      // and atexit state are not ours to flush.
      ::close(listen_fd);
      WorkerOptions mine = worker_options;
      mine.label = "local-" + std::to_string(w);
      int code = 0;
      try {
        const WorkerReport report = run_worker(mine);
        code = report.aborted ? 3 : 0;
      } catch (...) {
        code = 2;
      }
      ::_exit(code);
    }
    children.push_back(pid);
  }

  std::vector<checker::PropertyResult> results;
  try {
    results = serve_fd(listen_fd, model_text, specs, coordinator_options, stats);
  } catch (...) {
    for (const pid_t child : children) ::kill(child, SIGKILL);
    for (const pid_t child : children) ::waitpid(child, nullptr, 0);
    cleanup_socket();
    throw;
  }
  reap(children);
  cleanup_socket();
#ifdef __GLIBC__
  // The run's merge state was allocated on the handler threads' malloc
  // arenas, which glibc does not trim by itself; hand the freed pages back
  // so a long-lived caller (the daemon, a pipeline) running many fleet jobs
  // does not keep every job's peak resident.
  ::malloc_trim(0);
#endif
  return results;
}

}  // namespace hv::dist
