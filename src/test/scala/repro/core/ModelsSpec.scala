package repro.core

import org.scalatest.funsuite.AnyFunSuite

class ModelsSpec extends AnyFunSuite {

  test("sage factory builds the requested stack") {
    val m = Models.sage(Seq(8, 6, 4))
    assert(m.hops == 2 && m.inDim == 8 && m.outDim == 4)
    assert(m.signatures.map(_.kind) == Seq("sage", "sage"))
    assert(m.signatures.head.activation == "relu" && m.signatures.last.activation == "id")
  }

  test("gat factory: hidden concat, output mean") {
    val m = Models.gat(Seq(8, 6, 4), heads = 2)
    assert(m.hops == 2 && m.outDim == 4)
    val sigs = m.signatures
    assert(sigs.head.combine == "concat" && sigs.last.combine == "mean")
    assert(sigs.forall(s => s.partialGather && s.readsDst))
  }

  test("gat factory rejects indivisible hidden dims") {
    intercept[IllegalArgumentException](Models.gat(Seq(8, 5, 4), heads = 2))
  }

  test("factories are deterministic in seed") {
    val g = TinyGraphs.random(10, 30, 8, 1)
    val a = LocalInference.forward(g, Models.sage(Seq(8, 4), seed = 5))
    val b = LocalInference.forward(g, Models.sage(Seq(8, 4), seed = 5))
    val c = LocalInference.forward(g, Models.sage(Seq(8, 4), seed = 6))
    assert(a.maxAbsDiff(b) == 0.0 && a.maxAbsDiff(c) > 0.0)
  }

  test("degenerate dim lists rejected") {
    intercept[IllegalArgumentException](Models.sage(Seq(8)))
    intercept[IllegalArgumentException](Models.gat(Seq(8)))
  }
}
