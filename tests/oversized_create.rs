//! A `CREATE` whose size parameters ask for terabytes gets `-ERR`, and
//! the server keeps serving.
//!
//! The global allocator below refuses any single request over 64 MiB, so
//! a server that allocates for such a request aborts this test binary
//! instead of quietly succeeding, or swapping, on a large machine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::Arc;

use shbf::server::{Client, Engine, Server, ServerConfig};

/// The largest single allocation this test binary grants.
const CAP: usize = 64 << 20;

struct Capped;

// SAFETY: every call is forwarded to `System` unchanged; requests over the
// cap get a null pointer, which `GlobalAlloc` allows as "allocation failed".
unsafe impl GlobalAlloc for Capped {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() > CAP {
            return std::ptr::null_mut();
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if layout.size() > CAP {
            return std::ptr::null_mut();
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > CAP {
            return std::ptr::null_mut();
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Capped = Capped;

#[test]
fn oversized_creates_are_refused_and_the_server_keeps_serving() {
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::new(Engine::new()),
        ServerConfig::default(),
    )
    .unwrap();
    let handle = server.spawn().unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    for line in [
        // m = 2^40 bits: 640 GiB of counters and bits over 8 shards.
        "CREATE big shbf-m 1099511627776 8",
        // 2^40 shards of at least 64 bits each.
        "CREATE many shbf-m 65536 8 1099511627776",
        // A maximum count of 2^40 widens the array by 2^40 bits.
        "CREATE cnt shbf-x 65536 8 1099511627776",
        // k = 2^40: one hash seed per index.
        "CREATE wide shbf-m 65536 1099511627776",
    ] {
        let reply = client.send_expect_one(line).unwrap();
        assert!(reply.starts_with("-ERR"), "`{line}` replied `{reply}`");
    }
    assert_eq!(client.send_expect_one("PING").unwrap(), "+PONG");
    assert_eq!(
        client.send_expect_one("NAMESPACES").unwrap(),
        "*0",
        "a refused CREATE left a namespace behind"
    );
    handle.shutdown().unwrap();
}
