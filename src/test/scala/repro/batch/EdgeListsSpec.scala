package repro.batch

import org.scalatest.funsuite.AnyFunSuite

class EdgeListsSpec extends AnyFunSuite {

  private def multiset(ids: Array[Long], ws: Array[Double]): Map[(Long, Double), Int] =
    if (ids == null) Map.empty else ids.toSeq.zip(ws).groupMapReduce(identity)(_ => 1)(_ + _)

  test("pieces folded under a tiny cap concatenate to each vertex's lists, as multisets") {
    val rng = new scala.util.Random(5L)
    // multi-edges included: each weight is one of three
    val edges = Seq.fill(300)((rng.nextInt(20).toLong, rng.nextInt(20).toLong, (1 + rng.nextInt(3)) / 2.0))
    val hubs = Set(3L, 7L)
    val pieces = EdgeLists.pieces(edges.iterator, hubs, cap = 3).toSeq
    assert(pieces.forall(p => p._2 == null && (p._3 != null || p._5 != null)))
    assert(pieces.size > pieces.map(_._1).distinct.size, "no vertex got two pieces")
    val got = pieces.groupBy(_._1).map { case (id, ps) =>
      val lists = new EdgeLists
      ps.foreach(lists.addPiece)
      val r = lists.row(id, null)
      id -> (multiset(r._3, r._4), multiset(r._5, r._6))
    }
    // a hub edge belongs to its receiver's hub in-edges, any other to its
    // source's out-edges
    val want = edges.groupBy { case (s, d, _) => if (hubs(s)) d else s }.map { case (id, es) =>
      val (hubIn, out) = es.partition(e => hubs(e._1))
      id -> (out.groupMapReduce(e => (e._2, e._3))(_ => 1)(_ + _), hubIn.groupMapReduce(e => (e._1, e._3))(_ => 1)(_ + _))
    }
    assert(got == want)
  }
}
