"""Walk through the single-machine reservation scheduler by hand.

Shows how a window earns reservations in its intervals, how short jobs
displace long ones (never the reverse), and how deleting a short job can
promote a waitlisted reservation without moving anyone.
"""

import reallocsched as rs


def show(machine, label):
    snap = machine.snapshot()
    print(f"--- {label}")
    print(f"    occupancy: {dict(sorted(snap.occupancy.items()))}")
    for key in sorted(snap.books):
        book = snap.books[key]
        print(
            f"    interval L{book.level}[{book.index}] "
            f"reservations={dict(sorted(book.res.items()))} "
            f"fulfilled={dict(sorted(book.bound.items()))}"
        )


def main():
    machine = rs.MachineSchedule(gamma=1)
    machine.rebuild([], 64)  # nstar 64 keeps windows untrimmed for the walkthrough

    print("A window of span 64 covers two 32-slot intervals.  Its first job")
    print("creates the group: one base reservation per interval plus two for")
    print("the job, all fulfilled while the machine is empty.\n")
    machine.insert("first", rs.AlignedWindow(0, 64))
    show(machine, "after inserting 'first' with window [0, 64)")
    print(f"    fulfilled profile: {machine.fulfilled_profile()}\n")

    print("Level-0 jobs (span <= 32) ignore reservations entirely; they also")
    print("ignore longer jobs and displace them on collision.\n")
    for i in range(5):
        machine.insert(f"small{i}", rs.AlignedWindow(0, 8))
    show(machine, "after five span-8 jobs claim slots 0-4")
    moves = machine.insert("pushy", rs.AlignedWindow(4, 2))
    print(f"    inserting 'pushy' with window [4, 6): moves = {moves}")
    print("    the long job lost its slot and re-placed into another")
    print("    fulfilled slot of its own window; exactly one reallocation.\n")

    print("Deleting a short job hands its slot back to the enclosing")
    print("intervals, which may fulfill a waitlisted reservation for free.\n")
    machine2 = rs.MachineSchedule(gamma=1)
    machine2.rebuild([], 256)
    for i in range(15):
        machine2.insert(f"z{i}", rs.AlignedWindow(2 * i, 2))
    for i in range(20):
        machine2.insert(f"w{i}", rs.AlignedWindow(0, 64))
    book = machine2.snapshot().books[(1, 0)]
    print(f"    interval L1[0]: {book.res[(64, 0)]} reservations, "
          f"{len(book.bound)} fulfilled (allowance shrunk by level-0 jobs)")
    moves = machine2.delete("z3")
    book = machine2.snapshot().books[(1, 0)]
    moved = [m for m in moves if m[1] is not None and m[2] is not None]
    print(f"    delete 'z3': {len(moved)} jobs moved, fulfilled now {len(book.bound)}")
    print("    a waitlisted reservation was promoted without any job moving.")


if __name__ == "__main__":
    main()
