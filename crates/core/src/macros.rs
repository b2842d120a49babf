//! `task_def!` — the `#pragma css task` analogue.
//!
//! The paper's environment contains "a source-to-source compiler that
//! translates C code with the aforementioned annotations into standard C99
//! code with calls to the supporting runtime library". In Rust the same
//! translation is a declarative macro: the annotated function becomes (a) a
//! plain body function and (b) a wrapper that performs the spawner calls
//! the SMPSs compiler would have emitted.
//!
//! ## Grammar
//!
//! ```text
//! task_def! {
//!     /// doc comments and attributes pass through
//!     [highpriority] [pub] fn name(dir param: Type, ...) { body }
//! }
//! ```
//!
//! where `dir` is one of the paper's clauses plus `val`:
//!
//! | clause   | wrapper parameter    | body parameter | semantics           |
//! |----------|----------------------|----------------|---------------------|
//! | `input`  | `&Handle<T>`         | `&T`           | read only           |
//! | `output` | `&Handle<T>`         | `&mut T`       | written, not read   |
//! | `inout`  | `&Handle<T>`         | `&mut T`       | read and written    |
//! | `val`    | `T` (by value)       | `T`            | captured scalar (the paper passes sizes/indices as `input` scalars; no dependency tracking is useful for copies) |
//!
//! The wrapper's first parameter is always `&Runtime`. Calling the wrapper
//! *is* the task invocation: dependency analysis happens immediately, the
//! body runs later on some worker (or, for a ready task whose name has
//! a measured body cost under 1 µs, right away on the calling thread).
//!
//! ```
//! use smpss::{task_def, Runtime};
//!
//! task_def! {
//!     /// The paper's Figure 2 `sgemm_t`, on toy 1-element "blocks".
//!     pub fn sgemm_t(input a: f32, input b: f32, inout c: f32) {
//!         *c += *a * *b;
//!     }
//! }
//!
//! task_def! {
//!     highpriority
//!     pub fn urgent_zero(output x: f32, val tag: u32) {
//!         let _ = tag;
//!         *x = 0.0;
//!     }
//! }
//!
//! let rt = Runtime::builder().threads(2).build();
//! let (a, b, c) = (rt.data(2.0), rt.data(3.0), rt.data(1.0));
//! sgemm_t(&rt, &a, &b, &c);
//! urgent_zero(&rt, &c, 7);   // output kills the dependency via renaming
//! rt.barrier();
//! assert_eq!(rt.read(&c), 0.0);
//! ```

/// Declare SMPSs tasks. See the [module documentation](crate::macros) for
/// the full grammar.
#[macro_export]
macro_rules! task_def {
    // Entry: optional `highpriority` marker before the fn.
    ($(#[$m:meta])* highpriority $vis:vis fn $name:ident ( $($params:tt)* ) $body:block) => {
        $crate::__task_def_impl! {
            meta [$(#[$m])*] vis [$vis] name [$name] prio [high] sp [__sp]
            params [$($params)*]
            wa [] bind [] pre [] call [] bp []
            body [$body]
        }
    };
    ($(#[$m:meta])* $vis:vis fn $name:ident ( $($params:tt)* ) $body:block) => {
        $crate::__task_def_impl! {
            meta [$(#[$m])*] vis [$vis] name [$name] prio [normal] sp [__sp]
            params [$($params)*]
            wa [] bind [] pre [] call [] bp []
            body [$body]
        }
    };
}

/// Internal push-down accumulator for [`task_def!`]. Not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __task_def_impl {
    // ---- munch one parameter ----------------------------------------
    (meta [$($m:tt)*] vis [$vis:vis] name [$name:ident] prio [$prio:ident] sp [$sp:ident]
     params [input $arg:ident : $ty:ty $(, $($rest:tt)*)?]
     wa [$($wa:tt)*] bind [$($bind:tt)*] pre [$($pre:tt)*] call [$($call:tt)*] bp [$($bp:tt)*]
     body [$body:block]) => {
        $crate::__task_def_impl! {
            meta [$($m)*] vis [$vis] name [$name] prio [$prio] sp [$sp]
            params [$($($rest)*)?]
            wa [$($wa)* $arg: &$crate::Handle<$ty>,]
            bind [$($bind)* let $arg = $sp.read($arg);]
            pre [$($pre)* let mut $arg = $arg;]
            call [$($call)* $arg.get(),]
            bp [$($bp)* $arg: &$ty,]
            body [$body]
        }
    };
    (meta [$($m:tt)*] vis [$vis:vis] name [$name:ident] prio [$prio:ident] sp [$sp:ident]
     params [output $arg:ident : $ty:ty $(, $($rest:tt)*)?]
     wa [$($wa:tt)*] bind [$($bind:tt)*] pre [$($pre:tt)*] call [$($call:tt)*] bp [$($bp:tt)*]
     body [$body:block]) => {
        $crate::__task_def_impl! {
            meta [$($m)*] vis [$vis] name [$name] prio [$prio] sp [$sp]
            params [$($($rest)*)?]
            wa [$($wa)* $arg: &$crate::Handle<$ty>,]
            bind [$($bind)* let $arg = $sp.write($arg);]
            pre [$($pre)* let mut $arg = $arg;]
            call [$($call)* $arg.get_mut(),]
            bp [$($bp)* $arg: &mut $ty,]
            body [$body]
        }
    };
    (meta [$($m:tt)*] vis [$vis:vis] name [$name:ident] prio [$prio:ident] sp [$sp:ident]
     params [inout $arg:ident : $ty:ty $(, $($rest:tt)*)?]
     wa [$($wa:tt)*] bind [$($bind:tt)*] pre [$($pre:tt)*] call [$($call:tt)*] bp [$($bp:tt)*]
     body [$body:block]) => {
        $crate::__task_def_impl! {
            meta [$($m)*] vis [$vis] name [$name] prio [$prio] sp [$sp]
            params [$($($rest)*)?]
            wa [$($wa)* $arg: &$crate::Handle<$ty>,]
            bind [$($bind)* let $arg = $sp.inout($arg);]
            pre [$($pre)* let mut $arg = $arg;]
            call [$($call)* $arg.get_mut(),]
            bp [$($bp)* $arg: &mut $ty,]
            body [$body]
        }
    };
    (meta [$($m:tt)*] vis [$vis:vis] name [$name:ident] prio [$prio:ident] sp [$sp:ident]
     params [val $arg:ident : $ty:ty $(, $($rest:tt)*)?]
     wa [$($wa:tt)*] bind [$($bind:tt)*] pre [$($pre:tt)*] call [$($call:tt)*] bp [$($bp:tt)*]
     body [$body:block]) => {
        $crate::__task_def_impl! {
            meta [$($m)*] vis [$vis] name [$name] prio [$prio] sp [$sp]
            params [$($($rest)*)?]
            wa [$($wa)* $arg: $ty,]
            bind [$($bind)*]
            pre [$($pre)*]
            call [$($call)* $arg,]
            bp [$($bp)* $arg: $ty,]
            body [$body]
        }
    };
    // ---- all parameters consumed: emit ------------------------------
    (meta [$($m:tt)*] vis [$vis:vis] name [$name:ident] prio [$prio:ident] sp [$sp:ident]
     params []
     wa [$($wa:tt)*] bind [$($bind:tt)*] pre [$($pre:tt)*] call [$($call:tt)*] bp [$($bp:tt)*]
     body [$body:block]) => {
        $($m)*
        #[allow(clippy::too_many_arguments)]
        $vis fn $name(__rt: &$crate::Runtime, $($wa)*) {
            #[allow(clippy::too_many_arguments)]
            fn __task_body($($bp)*) $body
            let mut $sp = __rt.task(stringify!($name));
            $crate::__task_prio!($sp, $prio);
            $($bind)*
            $sp.submit(move || {
                $($pre)*
                __task_body($($call)*);
            });
        }
    };
}

/// Internal helper for [`task_def!`] priority handling. Not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __task_prio {
    ($sp:ident, normal) => {};
    ($sp:ident, high) => {
        $sp.high_priority();
    };
}

#[cfg(test)]
mod tests {
    use crate::Runtime;

    crate::task_def! {
        fn add_t(input a: i64, input b: i64, output c: i64) {
            *c = *a + *b;
        }
    }

    crate::task_def! {
        fn scale_t(inout x: i64, val k: i64) {
            *x *= k;
        }
    }

    crate::task_def! {
        highpriority
        fn hp_set(output x: i64, val v: i64) {
            *x = v;
        }
    }

    crate::task_def! {
        /// Docs and attributes must pass through.
        #[allow(dead_code)]
        pub fn documented(input a: i64) {
            let _ = a;
        }
    }

    #[test]
    fn basic_dataflow() {
        let rt = Runtime::builder().threads(1).build();
        let a = rt.data(2i64);
        let b = rt.data(3i64);
        let c = rt.data(0i64);
        add_t(&rt, &a, &b, &c);
        scale_t(&rt, &c, 10);
        rt.barrier();
        assert_eq!(rt.read(&c), 50);
    }

    #[test]
    fn chains_respect_order_multithreaded() {
        let rt = Runtime::builder().threads(4).build();
        let x = rt.data(1i64);
        for _ in 0..100 {
            scale_t(&rt, &x, 1); // long inout chain must stay ordered
        }
        let y = rt.data(0i64);
        add_t(&rt, &x, &x, &y);
        rt.barrier();
        assert_eq!(rt.read(&y), 2);
    }

    #[test]
    fn high_priority_marker_compiles_and_runs() {
        let rt = Runtime::builder().threads(2).build();
        let x = rt.data(0i64);
        hp_set(&rt, &x, 9);
        rt.barrier();
        assert_eq!(rt.read(&x), 9);
        assert_eq!(rt.stats().hp_pops, 1);
    }
}
