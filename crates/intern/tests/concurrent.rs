//! Both interners under concurrent writers and readers.
//!
//! Four threads intern one overlapping set of names and strings, each
//! starting at a different point and in a different letter case, and hand
//! every batch of ids to the next thread, which reads them back (name,
//! parent, suffix, string, ordering) while it and the others keep
//! interning. The set runs past several slot-segment boundaries (segment
//! `k` holds `64 << k` slots). Every text must end with exactly one id, and
//! everything read must agree with a single-threaded reference.

use dnswire::Name;
use intern::{InternedName, Sym};
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::thread;

const THREADS: usize = 4;
/// More than `64 (2^5 - 1)` names, before counting their suffixes.
const TEXTS: usize = 4_000;
const BATCH: usize = 50;

/// Ids handed from one thread to the next, by text index.
type Batch = Vec<(usize, InternedName, Sym)>;

fn name_text(i: usize) -> String {
    format!("h{i}.z{}.t{}.test", i % 37, i % 5)
}

fn sym_text(i: usize) -> String {
    format!("Sym-{i}")
}

/// What one received id must read as, against the owned reference.
fn check(i: usize, name: InternedName, sym: Sym) {
    let reference: Name = name_text(i).parse().unwrap();
    assert_eq!(name.to_string(), reference.to_string());
    assert_eq!(name, reference);
    assert_eq!(
        name.parent().unwrap().to_string(),
        format!("z{}.t{}.test", i % 37, i % 5)
    );
    assert_eq!(name.suffix(1).unwrap().to_string(), "test");
    assert_eq!(
        name.suffix(2).unwrap().to_string(),
        format!("t{}.test", i % 5)
    );
    assert_eq!(sym.as_str(), sym_text(i));
}

#[test]
fn concurrent_writers_and_readers_agree_with_a_sequential_reference() {
    let start = Arc::new(Barrier::new(THREADS));
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..THREADS).map(|_| mpsc::channel()).unzip();
    // Thread t sends to thread t + 1.
    let mut senders: Vec<Option<mpsc::Sender<Batch>>> = senders.into_iter().map(Some).collect();
    senders.rotate_right(1);
    let handles: Vec<_> = receivers
        .into_iter()
        .enumerate()
        .map(|(t, inbox)| {
            let next = senders[t].take().unwrap();
            let start = Arc::clone(&start);
            thread::spawn(move || {
                let mut ids = vec![None; TEXTS];
                let mut read = 0usize;
                let mut batch = Vec::with_capacity(BATCH);
                let mut read_batch = |batch: Batch, ids: &[Option<_>]| {
                    for (i, name, sym) in batch {
                        check(i, name, sym);
                        if let Some((own_name, own_sym)) = ids[i] {
                            assert_eq!((own_name, own_sym), (name, sym), "text {i}: two ids");
                            assert_eq!(own_name.cmp(&name), std::cmp::Ordering::Equal);
                        }
                        read += 1;
                    }
                };
                start.wait();
                for step in 0..TEXTS {
                    let i = (step + t * TEXTS / THREADS) % TEXTS;
                    let text = name_text(i);
                    let text = if t % 2 == 1 {
                        text.to_ascii_uppercase()
                    } else {
                        text
                    };
                    let name = InternedName::intern(&text.parse().unwrap());
                    let sym = Sym::intern(&sym_text(i));
                    ids[i] = Some((name, sym));
                    batch.push((i, name, sym));
                    if batch.len() == BATCH {
                        next.send(std::mem::take(&mut batch)).unwrap();
                        while let Ok(got) = inbox.try_recv() {
                            read_batch(got, &ids);
                        }
                    }
                }
                next.send(batch).unwrap();
                drop(next);
                for got in inbox {
                    read_batch(got, &ids);
                }
                assert_eq!(read, TEXTS, "thread {t} read every id of its neighbour");
                ids.into_iter()
                    .map(|id| id.expect("every text interned"))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let results: Vec<Vec<(InternedName, Sym)>> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();

    // One id per text, whichever thread asked.
    for other in &results[1..] {
        assert_eq!(other, &results[0]);
    }
    let ids = &results[0];
    for (i, &(name, sym)) in ids.iter().enumerate() {
        check(i, name, sym);
        assert_eq!(InternedName::lookup(name.name()), Some(name));
        assert_eq!(Sym::lookup(&sym_text(i)), Some(sym));
    }
    // Orderings are the texts', never the ids'.
    let mut by_id: Vec<usize> = (0..TEXTS).collect();
    by_id.sort_by(|&a, &b| ids[a].0.cmp(&ids[b].0));
    let mut by_name: Vec<usize> = (0..TEXTS).collect();
    by_name.sort_by_key(|&i| name_text(i).parse::<Name>().unwrap());
    assert_eq!(by_id, by_name);
    let mut by_sym: Vec<usize> = (0..TEXTS).collect();
    by_sym.sort_by(|&a, &b| ids[a].1.cmp(&ids[b].1));
    let mut by_str: Vec<usize> = (0..TEXTS).collect();
    by_str.sort_by_key(|&i| sym_text(i));
    assert_eq!(by_sym, by_str);
}
